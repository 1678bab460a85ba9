#!/usr/bin/env bash
# reach.sh checks that every function under internal/ is either run by a
# documented invocation of a shipped program or listed in reach.txt with
# a reason. Run it from the repository root (make reach does):
#
#	bash reach.sh
#
# It builds every command but benchjson, every example and benchmark/
# with `go build -cover -coverpkg=./...` into a temporary directory,
# runs the invocations below with GOCOVERDIR set (each must exit 0),
# merges the counters with `go tool covdata func` and lists the
# functions under internal/ that never ran, keyed by file and name (no
# line number, so edits elsewhere in a file do not make an entry stale).
# A package no main links is keyed by its directory and the name
# `package`.
#
# Each line of reach.txt is `<file> <function> <reason>`, the reason one
# of:
#
#	error path                 only a failure reaches it
#	test diagnostic            tests compare or report through it
#	pinned by <Test|Fuzz name> the named test runs it; that function
#	                           must exist in some _test.go file
#
# The check fails on an unreached function with no line, on a line whose
# function is now reached (a stale entry), on a key listed twice, on
# another reason, and on `pinned by` a test that does not exist.
set -u
export LC_ALL=C
GO=${GO:-go}
tmp=$(mktemp -d) || exit 1
trap 'rm -rf "$tmp"' EXIT
bin=$tmp/bin src=$tmp/src
mkdir -p "$bin" "$src" "$tmp/cov" "$tmp/out"

mains="./cmd/tcasm ./cmd/tcc ./cmd/tcdisasm ./cmd/tclint ./cmd/tcperf ./cmd/tcpkg ./cmd/tcrun ./benchmark"
for d in examples/*/; do mains="$mains ./${d%/}"; done
$GO build -cover -coverpkg=./... -o "$bin/" $mains || exit 1

export GOCOVERDIR=$tmp/cov
run() {
	if ! "$@" >"$tmp/log" 2>&1; then
		cat "$tmp/log"
		echo "reach: failed: $*"
		exit 1
	fi
}

run "$bin/tcperf" -list
run "$bin/tcperf" -e all -csv -scale 0.05
run "$bin/tcperf" -e fig5 -scale 0.05
for d in examples/*/; do
	d=${d%/}
	run "$bin/${d#examples/}"
done
for app in tcbench:sssum kvstore:kv_put histo:hist_add; do
	run "$bin/tcrun" -app "${app%%:*}" -jam "${app#*:}"
	run "$bin/tcrun" -app "${app%%:*}" -jam "${app#*:}" -injected=false
done
run "$bin/tcrun" -app kvstore -jam kv_put -arg0 7 -arg1 21 -tenant gold
run "$bin/tcpkg" list
run "$bin/tcpkg" inspect kvstore
run "$bin/tcpkg" gensrc -dir "$src"
run "$bin/tcpkg" build -name tcbench -src "$src" -o "$tmp/tcbench.tcpkg"
run "$bin/tcpkg" inspect "$tmp/tcbench.tcpkg"
run "$bin/tcrun" -pkg "$tmp/tcbench.tcpkg" -jam jam_iput -arg0 42 -payload 256
run "$bin/tcdisasm" -pkg "$tmp/tcbench.tcpkg" -jam jam_iput
run "$bin/tcc" -S "$src/jam_hello.amc"
run "$bin/tcc" -o "$tmp/hello.tco" "$src/jam_hello.amc"
run "$bin/tcasm" -o "$tmp/sssum.tco" "$src/jam_sssum.ams"
run "$bin/tcdisasm" "$tmp/hello.tco"
run "$bin/tcdisasm" "$tmp/sssum.tco"
run "$bin/benchmark" -quick -outdir "$tmp/out"
run "$bin/benchmark" -quick -trace 1 -outdir "$tmp/out"
run "$bin/tclint" ./...

# covdata prints `<module>/internal/pkg/file.go:LINE:<tab>Name<tabs>PCT`
# for every function of a package some main links. A package no main
# links (a test harness) has no counters at all: it is keyed
# `<dir> package`.
mod=$($GO list -m) || exit 1
$GO tool covdata func -i="$tmp/cov" >"$tmp/func" || exit 1
awk -v mod="$mod/" '$1 ~ "^" mod "internal/" {
	split($1, p, ":"); print substr(p[1], length(mod) + 1), $2, $NF
}' "$tmp/func" >"$tmp/funcs"
awk '{ sub(/\/[^\/]*$/, "", $1); print $1 }' "$tmp/funcs" | sort -u >"$tmp/linked"
{
	awk '$3 == "0.0%" { print $1, $2 }' "$tmp/funcs"
	$GO list ./internal/... | sed "s|^$mod/||" | sort | comm -23 - "$tmp/linked" | sed 's/$/ package/'
} | sort -u >"$tmp/unreached"

status=0
grep -v '^[[:space:]]*\(#\|$\)' reach.txt >"$tmp/listed"
while read -r file fn reason; do
	case "$reason" in
	"error path" | "test diagnostic") ;;
	"pinned by "Test* | "pinned by "Fuzz*)
		t=${reason#pinned by }
		if ! grep -rqE --include='*_test.go' "^func $t\(" .; then
			echo "reach.txt: $file $fn: pinned by $t, but no _test.go declares $t"
			status=1
		fi
		;;
	*)
		echo "reach.txt: $file $fn: reason \"$reason\" is not error path, test diagnostic or pinned by <Test|Fuzz name>"
		status=1
		;;
	esac
done <"$tmp/listed"
awk '{ print $1, $2 }' "$tmp/listed" | sort >"$tmp/keys"
{
	uniq -d "$tmp/keys" | sed 's/^/reach.txt: listed twice: /'
	comm -23 "$tmp/unreached" "$tmp/keys" | sed 's/^/reach: never run and not in reach.txt: /'
	sort -u "$tmp/keys" | comm -13 "$tmp/unreached" - | sed 's/^/reach.txt: stale, now run: /'
} >"$tmp/bad"
cat "$tmp/bad"
[ -s "$tmp/bad" ] && status=1
[ $status = 0 ] && echo "reach: every unreached function under internal/ has a reason ($(wc -l <"$tmp/unreached") listed)"
exit $status
