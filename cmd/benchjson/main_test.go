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
