#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given. Everything the Go toolchain writes (build cache,
# temporary files, the binary) stays under .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: no go.mod beside benchmark/: nothing to build the simulator from" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$build/tcbench" ./benchmark
# Freed heap goes back lazily (MADV_FREE): see lazyFreeGODEBUG in main.go.
case "${GODEBUG:-}" in
*madvdontneed=*) ;;
*) export GODEBUG="${GODEBUG:+$GODEBUG,}madvdontneed=0" ;;
esac
exec "$build/tcbench" "$@"
