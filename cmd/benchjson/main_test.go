package main

import (
	"bufio"
	"strings"
	"testing"
)

// TestSmokeAllocsGate pins the lower-is-better allocs/op gate: replaying
// the PR 10 regression (7,550 -> 299,184 allocs/op on the mesh
// all-to-all) against a recording of the cheaper value must fail, a rise
// inside the band must pass.
func TestSmokeAllocsGate(t *testing.T) {
	parseLine := func(allocs string) map[string]*Entry {
		t.Helper()
		line := "BenchmarkMeshAllToAll-2 10 26565654 ns/op 896.0 msgs 13861364 sim_inj_per_sec 86136714 B/op " + allocs + " allocs/op\n"
		m, err := parse(bufio.NewScanner(strings.NewReader(line)))
		if err != nil || m["BenchmarkMeshAllToAll"] == nil {
			t.Fatalf("parse: %v, %v", m, err)
		}
		return m
	}
	base := parseLine("7550")
	if smokeCheck(parseLine("299184"), base, "test", "allocs/op", 0.25) {
		t.Error("a 40x allocs/op rise passed the gate")
	}
	if !smokeCheck(parseLine("8000"), base, "test", "allocs/op", 0.25) {
		t.Error("a 6% allocs/op rise failed a 25% band")
	}
	if !smokeCheck(parseLine("3000"), base, "test", "allocs/op", 0.25) {
		t.Error("an allocs/op drop failed the gate")
	}
}

// TestSmokeBytesGate pins the lower-is-better B/op gate: per-node
// re-zeroing replayed (PR 15 took the mesh all-to-all from 86.1 MB to
// ~19 MB per run by recycling address-space backings) must fail against
// a recording of the recycled value, a rise inside the band must pass.
func TestSmokeBytesGate(t *testing.T) {
	parseLine := func(bytes string) map[string]*Entry {
		t.Helper()
		line := "BenchmarkMeshAllToAll-2 10 12800000 ns/op 896.0 msgs 13861364 sim_inj_per_sec " + bytes + " B/op 13218 allocs/op\n"
		m, err := parse(bufio.NewScanner(strings.NewReader(line)))
		if err != nil || m["BenchmarkMeshAllToAll"] == nil {
			t.Fatalf("parse: %v, %v", m, err)
		}
		return m
	}
	base := parseLine("18900000")
	if smokeCheck(parseLine("86136714"), base, "test", "B/op", 0.25) {
		t.Error("a 4.5x B/op rise passed the gate")
	}
	if !smokeCheck(parseLine("20000000"), base, "test", "B/op", 0.25) {
		t.Error("a 6% B/op rise failed a 25% band")
	}
	if !smokeCheck(parseLine("9000000"), base, "test", "B/op", 0.25) {
		t.Error("a B/op drop failed the gate")
	}
}

// TestSmokeHostShapeGate pins that only the host-clock metric refuses a
// baseline from another host shape (BENCH_PR10.json, recorded
// single-core, gated ns/op on a 2-core host and failed at every commit).
func TestSmokeHostShapeGate(t *testing.T) {
	twoCore := Host{GoMaxProcs: 2, NumCPU: 2}
	for _, tc := range []struct {
		name   string
		metric string
		base   *Host
		refuse bool
	}{
		{"ns/op same shape", "ns/op", &Host{GoMaxProcs: 2, NumCPU: 2}, false},
		{"ns/op other NumCPU", "ns/op", &Host{GoMaxProcs: 1, NumCPU: 1}, true},
		{"ns/op other GOMAXPROCS", "ns/op", &Host{GoMaxProcs: 1, NumCPU: 2}, true},
		{"ns/op unstamped baseline", "ns/op", nil, false},
		{"allocs/op other shape", "allocs/op", &Host{GoMaxProcs: 1, NumCPU: 1}, false},
		{"B/op other shape", "B/op", &Host{GoMaxProcs: 1, NumCPU: 1}, false},
		{"sim_inj_per_sec other shape", "sim_inj_per_sec", &Host{GoMaxProcs: 1, NumCPU: 1}, false},
	} {
		err := hostShapeErr(tc.metric, tc.base, twoCore, "BENCH_X.json")
		if (err != nil) != tc.refuse {
			t.Errorf("%s: err = %v, want refusal %v", tc.name, err, tc.refuse)
		}
		if err != nil && !strings.Contains(err.Error(), "re-record with `make bench-json`") {
			t.Errorf("%s: %v does not say how to re-record", tc.name, err)
		}
	}
}
