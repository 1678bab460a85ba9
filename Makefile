# Two-Chains build/test entry points. `make check` is the tier-1 gate CI
# runs: formatting, vet, lint, build, the tests twice (plainly, then
# under -race) and a few seconds of each fuzz target. The plain run is
# the one that checks TestWorkBudgets and the 64-node workload pins:
# both skip themselves under -race.
#
# Work per injection is gated exactly inside `go test ./...`: the root
# package's TestWorkBudgets (budget_test.go) pins the allocations of one
# warm run of three benchmark shapes, bounds their bytes, and holds the
# BenchmarkFuncCall/BenchmarkStringInject loops at 0 allocations; the
# internal/workload goldens and pin tables pin every benchmark shape's
# simulated outcome. The host-clock performance ruler is not in this
# file: it is `go run ./benchmark` (BENCHMARK.json's four workloads, host
# injections/sec with per-layer probes) and `go run ./benchmark -compare
# old.json new.json` for parent-vs-change verdicts; see
# benchmark/README.md. Nothing below measures host speed against a
# threshold.
#
# `make lint` runs cmd/tclint — the six static checkers for the ROADMAP's
# ownership, determinism and deletion contracts (scratchescape,
# poolownership, detsource, deadexport, writeonly, neverset) — and fails
# on any diagnostic. deadexport counts callers, and writeonly and
# neverset count field readers and setters, across the whole module, so
# lint type-checks every module package (once each) whatever it is
# pointed at.
# Suppress a single finding with `//tclint:allow <analyzer> <reason>`;
# stale or malformed directives fail the lint themselves. The vet
# target names copylocks/loopclosure/atomic explicitly so a toolchain
# default change can never silently drop them.
#
# `make examples` builds and runs every examples/* binary headless — the
# cheapest whole-surface smoke of the public API (CI runs it too).
#
# `make cross` builds and vets the tree for arm64, the paper's testbed
# architecture (no download: the toolchain cross-compiles pure Go), then
# fails on any fused multiply-add (FMADDD, FMSUBD, FNMADDD, FNMSUBD) the
# arm64 compiler emits for a line under internal/: Go may fuse x*y + z
# into one rounding, which amd64 never does, so a fused line gives Arm
# other digests for the same seed. Write such a line float64(x*y) + z
# (the whole target takes ~11 s warm on a 2-core host).
#
# `make fuzz-smoke` runs eight fuzz targets for 5 s each. FuzzEnsureJam
# (internal/vm): arbitrary bytes at arbitrary (VA, length) sequences must
# map or be refused, never panic; then FuzzAddressSpaceRecycle (internal/mem):
# arbitrary accessor sequences on a space grown into poisoned recycled
# backings must match a never-recycled space value for value, fault for
# fault, byte for byte; then FuzzHierarchy (internal/memsim): arbitrary
# access / NIC-write / warm / stress / reset / recycle sequences on a
# Hierarchy must match the reference stamp-LRU model cost for cost,
# counter for counter, line for line; then FuzzPortPut (internal/fabric):
# arbitrary registrations and puts, with valid, foreign or never-issued
# rkeys at in-range, edge and near-2^64 addresses, on every fabric backend
# must land exactly the bytes a naive interval model says and refuse the
# rest with an error, calling back once per put; then FuzzDecode
# (internal/wire): bytes seeded from the real tcapp encodings, fed to the
# object, image, jam or package decoder its first byte picks, must never
# panic, must be refused with a typed *wire.Error or re-encode to exactly
# themselves, and may allocate at most 16 bytes per input byte plus 4 KiB;
# an accepted image must also load into a fresh space, r-x text and no
# page outside its region touched; then FuzzParseFrame (internal/mailbox): slot bytes seeded from frames
# packed from every tcapp element (injected, local and data kinds) must be
# refused with a typed *wire.Error or *mem.Fault, or parse into a delivery
# whose GOT, body, entry, args and payload lie inside the slot; then
# FuzzCompile (internal/amcc): source seeded from the AMC the tcapp apps
# compile must be refused with a typed *amcc.Error or compile to an object
# that passes Validate and re-encodes to the same bytes through
# elfobj.Decode, never panicking; then FuzzAssemble (internal/asm): source
# seeded from tcbench's assembly and from what amcc emits for the tcapp
# jams must be refused with a typed *asm.Error or assemble to an object
# with the same two properties.
# A failing input lands in the package's testdata/fuzz/ — commit it with
# the fix.
#
# `make bench-json` writes $(BENCH_OUT) (the gitignored
# bench_trajectory.json by default; CI uploads it) — a machine-readable
# perf trajectory point (ns/op, allocs/op, B/op, simulated
# injections/sec, stamped with the host shape), including the
# 64/128-node meshes, the multi-tenant overload benchmark with its
# per-tenant goodput metrics, the chaos-perturbed fail/rejoin mesh with
# its loss ledger, and the layer benchmarks of internal/sim,
# internal/memsim and internal/vm. Nothing compares it against a
# recording.
# `make simdiff BASE=<rev>` is the "nothing simulated moved" check for a
# change that must not touch the model: it builds cmd/tcperf from BASE
# (extracted with `git archive` into a temporary directory) and from the
# working tree, runs `tcperf -e all -csv` on both and compares the two
# outputs byte for byte. On a mismatch it prints the first differing
# lines and exits 1. It is not part of `make check`, because it needs a
# base revision.
# `make reach` asks which code under internal/ a real run executes. It
# builds every command but benchjson, every example and benchmark/ with
# `go build -cover -coverpkg=./...`, runs each as its docs say (the
# invocations are listed in reach.sh; tcperf runs at -scale 0.05, which
# enters the same functions as scale 1), each of which must exit 0, and
# merges the counters with `go tool covdata func`. Every function under internal/ that no invocation entered needs
# a line in reach.txt, `<file> <function> <reason>`, with one of three
# reasons: `error path` (only a failure reaches it), `test diagnostic`
# (tests compare or report through it) or `pinned by <Test|Fuzz name>`
# (that test, declared in some _test.go file, runs it: ISA paths,
# natives and language forms a user program built with tcpkg may use).
# A function with no line, a line for a function that now runs (stale,
# as tclint treats stale waivers), another reason and `pinned by` a test
# that does not exist all fail. A package no main links is keyed by its
# directory and the name `package`. The logic is in reach.sh (~10 s on
# a 2-core host). It is not part of `make check`; CI runs it beside
# `make cross`.
#
# `make profile` captures CPU+heap profiles of BenchmarkMeshAllToAll for
# diagnosing regressions (mesh_cpu.prof / mesh_mem.prof, inspect with
# `go tool pprof`). It does not run vet first: CI runs it after `make
# check`, which already did.

GO ?= go
GOFMT ?= gofmt
BENCH_OUT ?= bench_trajectory.json

.PHONY: check fmt-check vet lint build cross test fuzz-smoke bench-json profile perf examples simdiff reach

check: fmt-check vet build lint test fuzz-smoke

fmt-check:
	@unformatted=$$($(GOFMT) -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...
	$(GO) vet -copylocks -loopclosure -atomic ./...

lint:
	$(GO) run ./cmd/tclint ./...

build:
	$(GO) build ./...

cross:
	GOARCH=arm64 $(GO) build ./... && GOARCH=arm64 $(GO) vet ./...
	@fused=$$(GOARCH=arm64 $(GO) build -gcflags=-S ./internal/... 2>&1 | \
		grep -E '[[:space:]](FMADDD|FMSUBD|FNMADDD|FNMSUBD)[[:space:]]' | \
		grep -oE '\($(CURDIR)/internal/[^)]*\.go:[0-9]+\)' | sort | uniq -c); \
	if [ -n "$$fused" ]; then \
		echo "cross: fused multiply-adds on arm64 (write float64(x*y) + z):"; echo "$$fused"; exit 1; \
	fi

test:
	$(GO) test ./...
	$(GO) test -race ./...

examples:
	$(GO) build ./examples/...
	@for d in examples/*/; do \
		echo "== $$d"; \
		$(GO) run ./$$d >/dev/null || exit 1; \
	done
	@echo "all examples ran clean"

fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzEnsureJam -fuzztime 5s ./internal/vm
	$(GO) test -run xxx -fuzz FuzzAddressSpaceRecycle -fuzztime 5s ./internal/mem
	$(GO) test -run xxx -fuzz FuzzHierarchy -fuzztime 5s ./internal/memsim
	$(GO) test -run xxx -fuzz FuzzPortPut -fuzztime 5s ./internal/fabric
	$(GO) test -run xxx -fuzz FuzzDecode -fuzztime 5s ./internal/wire
	$(GO) test -run xxx -fuzz FuzzParseFrame -fuzztime 5s ./internal/mailbox
	$(GO) test -run xxx -fuzz FuzzCompile -fuzztime 5s ./internal/amcc
	$(GO) test -run xxx -fuzz FuzzAssemble -fuzztime 5s ./internal/asm

bench-json:
	@{ $(GO) test -run xxx -bench 'BenchmarkMeshFanout$$|BenchmarkMeshAllToAll$$|BenchmarkMeshHotspot$$|BenchmarkKVStore|BenchmarkMultiPhase|BenchmarkMultiTenantOverload' -benchmem -benchtime 10x . && \
	   $(GO) test -run xxx -bench 'BenchmarkMesh(AllToAll|Fanout|Hotspot)(64|128)$$|BenchmarkMeshChaos64$$' -benchmem -benchtime 1x . && \
	   $(GO) test -run xxx -bench 'BenchmarkFuncCall$$|BenchmarkStringInject|BenchmarkFramePack' -benchmem -benchtime 200000x . && \
	   $(GO) test -run xxx -bench 'BenchmarkEngine' -benchmem -benchtime 200000x ./internal/sim && \
	   $(GO) test -run xxx -bench 'BenchmarkAccessSameLine|BenchmarkStashedRead1K|BenchmarkNetworkWriteFrame|BenchmarkConflictSet|BenchmarkReset' -benchmem -benchtime 200000x ./internal/memsim && \
	   $(GO) test -run xxx -bench 'BenchmarkNew$$' -benchmem -benchtime 1000x ./internal/memsim && \
	   $(GO) test -run xxx -bench 'BenchmarkInterpretSum|BenchmarkInterpretKVScan' -benchmem -benchtime 50000x ./internal/vm; } \
	| $(GO) run ./cmd/benchjson -o $(BENCH_OUT)
	@echo "wrote $(BENCH_OUT)"

simdiff:
	@test -n "$(BASE)" || { echo "usage: make simdiff BASE=<rev>"; exit 2; }
	@tmp=$$(mktemp -d) || exit 1; trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/base" && git archive "$(BASE)" | tar -x -C "$$tmp/base" && \
	(cd "$$tmp/base" && $(GO) build -o "$$tmp/tcperf.base" ./cmd/tcperf) && \
	$(GO) build -o "$$tmp/tcperf.new" ./cmd/tcperf && \
	"$$tmp/tcperf.base" -e all -csv > "$$tmp/base.csv" && \
	"$$tmp/tcperf.new" -e all -csv > "$$tmp/new.csv" || exit 1; \
	if cmp -s "$$tmp/base.csv" "$$tmp/new.csv"; then \
		echo "simdiff: tcperf -e all -csv identical to $(BASE) ($$(wc -l < "$$tmp/new.csv") lines)"; \
	else \
		echo "simdiff: tcperf -e all -csv differs from $(BASE) (< base, > working tree):"; \
		diff "$$tmp/base.csv" "$$tmp/new.csv" | head -20; exit 1; \
	fi

reach:
	GO=$(GO) bash reach.sh

profile:
	$(GO) test -run xxx -bench '^BenchmarkMeshAllToAll$$' -benchtime 20x \
		-cpuprofile mesh_cpu.prof -memprofile mesh_mem.prof .
	@echo "profiles: mesh_cpu.prof mesh_mem.prof (go tool pprof -top mesh_cpu.prof)"

perf:
	$(GO) run ./cmd/tcperf -e mesh
	$(GO) run ./cmd/tcperf -e scenarios
