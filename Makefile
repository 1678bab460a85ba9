# Two-Chains build/test entry points. `make check` is the tier-1 gate CI
# runs: formatting, vet, lint, build, race tests, a few seconds of
# parser fuzzing, and benchmark smoke passes (mesh workloads plus the
# handle-vs-string invocation pair, with -benchmem so allocation
# regressions surface in CI logs, and allocs/op and B/op gates on three
# of them).
#
# The host-clock performance ruler is not in this file: it is
# `go run ./benchmark` (BENCHMARK.json's four workloads, host
# injections/sec with per-layer probes) and `go run ./benchmark -compare
# old.json new.json` for parent-vs-change verdicts; see
# benchmark/README.md. Nothing below measures host speed against a
# threshold except the BenchmarkFuncCall ns/op check.
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
# architecture (no download: the toolchain cross-compiles pure Go).
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
# bench_trajectory.json by default, so a local run never re-records the
# committed gate baseline; pass BENCH_OUT=BENCH_PRnn.json to record one on
# purpose) — the machine-readable perf
# trajectory point (ns/op, allocs/op, simulated injections/sec, stamped
# with the host shape), including the 64/128-node meshes, the multi-tenant overload benchmark
# with its per-tenant goodput metrics, the chaos-perturbed fail/rejoin
# mesh with its loss ledger, and the layer benchmarks of internal/sim,
# internal/memsim and internal/vm. bench-smoke compares sim_inj_per_sec against the
# newest recorded trajectory file ($(SMOKE_BASELINE)): that
# metric is simulated injections per simulated second, a pure function
# of the scenario, so the comparison is a determinism check (did the
# model's arithmetic move?), not a performance gate. It also checks
# BenchmarkFuncCall/BenchmarkStringInject ns/op against
# $(FUNC_BASELINE) (the same recording since PR 21; lower is better;
# benchjson refuses a recording from another GOMAXPROCS/NumCPU shape),
# and allocs/op and B/op
# of BenchmarkMeshAllToAll, BenchmarkKVStoreOpenLoop and
# BenchmarkMultiTenantOverload against $(SMOKE_BASELINE) (lower is
# better; allocations per run are a property of the code path, not of the
# host, so a compile or decode creeping back onto the delivery path —
# PR 10 took the mesh from 7,550 to 299,184 allocs — or onto install —
# 12,785 vs 4,945 allocs on the mesh before PR 21 stopped translating
# library text and rebuilding packages per run — or every node's
# 8 MB address-space backing being allocated and zeroed per run again
# instead of recycled — 86 MB/op before PR 15 — or every hierarchy
# growing a second per-way array beside its tags again — 20.7 vs 15.5
# MB/op on the mesh before PR 16 — or every node's 1.28 MB of tags being
# allocated per run again instead of recycled — 15.5 vs 3.3 MB/op on the
# mesh, 19.0 vs 7.9 on the kvstore before PR 19 — fails here. That step
# runs twice, at -cpu 1 and at -cpu 2, each its own benchjson check since
# benchjson strips the -P suffix: the backings and tag arrays that outlive
# a system wait on a last-in-first-out shelf that drops nothing, so both
# read the same (0.84 MB/op on the mesh). While they sat in sync.Pool, an
# entry parked in the other P's private slot was dropped after two GCs and
# the mesh read 1.76 MB/op at -cpu 2 — one 8 MB backing is 0.84 MB/op,
# one LLC tag array 0.12 — so the gate ran at -cpu 1 only);
# chaos-smoke race-runs the fail/rejoin drain.
# `make simdiff BASE=<rev>` is the "nothing simulated moved" check for a
# change that must not touch the model: it builds cmd/tcperf from BASE
# (extracted with `git archive` into a temporary directory) and from the
# working tree, runs `tcperf -e all -csv` on both and compares the two
# outputs byte for byte. On a mismatch it prints the first differing
# lines and exits 1. It is not part of `make check`, because it needs a
# base revision.
# `make profile` captures CPU+heap profiles of BenchmarkMeshAllToAll for
# diagnosing regressions (mesh_cpu.prof / mesh_mem.prof, inspect with
# `go tool pprof`). It does not run vet first: CI runs it after `make
# check`, which already did.

GO ?= go
GOFMT ?= gofmt
BENCH_OUT ?= bench_trajectory.json
SMOKE_BASELINE ?= BENCH_PR21.json
# FUNC_BASELINE gates BenchmarkFuncCall/BenchmarkStringInject ns/op (lower
# is better): the one host-clock check in this file. It follows
# SMOKE_BASELINE again: PR 21 deleted the compiled engine these two
# timing-off microbenchmarks were its one win on, so every older
# recording describes a path that is gone (FuncCall 988 -> 1959 ns/op,
# StringInject 955 -> 1880, medians of six alternating readings, 0
# allocs/op both sides; BENCH_PR15.json held 1515/1443). ns/op is a host-clock number from a 2-core host whose
# neighbouring runs differ by up to 40 %; if this is the only failure,
# A/B parent and change before blaming the diff (ROADMAP item 1(a) moves
# the check to a paired target).
FUNC_BASELINE ?= BENCH_PR21.json

.PHONY: check fmt-check vet lint build cross test fuzz-smoke bench-smoke chaos-smoke bench-json profile perf examples simdiff

check: fmt-check vet build lint test chaos-smoke fuzz-smoke bench-smoke

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

test:
	$(GO) test -race ./...

examples:
	$(GO) build ./examples/...
	@for d in examples/*/; do \
		echo "== $$d"; \
		$(GO) run ./$$d >/dev/null || exit 1; \
	done
	@echo "all examples ran clean"

bench-smoke:
	$(GO) test -short -run xxx -bench 'BenchmarkMesh|BenchmarkKVStore|BenchmarkMultiPhase' -benchmem -benchtime 1x . \
		> bench_smoke.out || { cat bench_smoke.out; rm -f bench_smoke.out; exit 1; }
	@cat bench_smoke.out
	@$(GO) run ./cmd/benchjson -smoke -baseline $(SMOKE_BASELINE) -metric sim_inj_per_sec -tol 0.25 < bench_smoke.out; \
		st=$$?; rm -f bench_smoke.out; exit $$st
	$(GO) test -run xxx -bench 'BenchmarkFuncCall$$|BenchmarkStringInject' -benchmem -benchtime 200000x . \
		> bench_func.out || { cat bench_func.out; rm -f bench_func.out; exit 1; }
	@cat bench_func.out
	@$(GO) run ./cmd/benchjson -smoke -baseline $(FUNC_BASELINE) -metric ns/op -tol 0.25 < bench_func.out; \
		st=$$?; rm -f bench_func.out; exit $$st
	for cpu in 1 2; do \
		$(GO) test -run xxx -bench 'BenchmarkMeshAllToAll$$|BenchmarkKVStoreOpenLoop$$|BenchmarkMultiTenantOverload$$' -benchmem -benchtime 10x -cpu $$cpu . \
			> bench_alloc.out || { cat bench_alloc.out; rm -f bench_alloc.out; exit 1; }; \
		cat bench_alloc.out; \
		$(GO) run ./cmd/benchjson -smoke -baseline $(SMOKE_BASELINE) -metric allocs/op -tol 0.25 < bench_alloc.out && \
		$(GO) run ./cmd/benchjson -smoke -baseline $(SMOKE_BASELINE) -metric B/op -tol 0.25 < bench_alloc.out \
			|| { rm -f bench_alloc.out; exit 1; }; \
	done; rm -f bench_alloc.out

fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzEnsureJam -fuzztime 5s ./internal/vm
	$(GO) test -run xxx -fuzz FuzzAddressSpaceRecycle -fuzztime 5s ./internal/mem
	$(GO) test -run xxx -fuzz FuzzHierarchy -fuzztime 5s ./internal/memsim
	$(GO) test -run xxx -fuzz FuzzPortPut -fuzztime 5s ./internal/fabric
	$(GO) test -run xxx -fuzz FuzzDecode -fuzztime 5s ./internal/wire
	$(GO) test -run xxx -fuzz FuzzParseFrame -fuzztime 5s ./internal/mailbox
	$(GO) test -run xxx -fuzz FuzzCompile -fuzztime 5s ./internal/amcc
	$(GO) test -run xxx -fuzz FuzzAssemble -fuzztime 5s ./internal/asm

chaos-smoke:
	$(GO) test -race -run 'TestFailRejoinDrain' ./internal/workload

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

profile:
	$(GO) test -run xxx -bench BenchmarkMeshAllToAll -benchtime 20x \
		-cpuprofile mesh_cpu.prof -memprofile mesh_mem.prof .
	@echo "profiles: mesh_cpu.prof mesh_mem.prof (go tool pprof -top mesh_cpu.prof)"

perf:
	$(GO) run ./cmd/tcperf -e mesh
	$(GO) run ./cmd/tcperf -e scenarios
