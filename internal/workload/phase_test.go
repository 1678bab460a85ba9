package workload

import (
	"errors"
	"testing"
)

// asScenarioError unwraps to the typed validation error.
func asScenarioError(err error, target **ScenarioError) bool {
	return errors.As(err, target)
}

// TestKVStoreScenarioRuns: the open-loop composed scenario completes
// its whole plan over the kvstore app with zero handler errors, and
// replays bit-identically.
func TestKVStoreScenarioRuns(t *testing.T) {
	sc := KVStoreScenario(6)
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Injections == 0 || a.Injections != a.Phases[0].Planned {
		t.Fatalf("executed %d of %d planned", a.Injections, a.Phases[0].Planned)
	}
	for i, nr := range a.PerNode {
		if nr.Errors != 0 {
			t.Errorf("node %d: %d errors", i, nr.Errors)
		}
		if nr.Executed != nr.Sent {
			t.Errorf("node %d: executed %d of %d", i, nr.Executed, nr.Sent)
		}
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest || a.SimTime != b.SimTime {
		t.Fatalf("open-loop runs diverged: %x/%v vs %x/%v", a.Digest, a.SimTime, b.Digest, b.SimTime)
	}
}

// TestOpenLoopDiffersFromClosedLoop: the arrival process is part of the
// plan — switching the same scenario to closed loop changes timing.
func TestOpenLoopDiffersFromClosedLoop(t *testing.T) {
	open := KVStoreScenario(5)
	closed := KVStoreScenario(5)
	closed.Phases[0].Arrival = &Arrival{Kind: ClosedLoop}
	a, err := Run(open)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(closed)
	if err != nil {
		t.Fatal(err)
	}
	if a.SimTime == b.SimTime {
		t.Fatalf("open and closed loop finished at the identical simulated time %v", a.SimTime)
	}
	if a.Injections != b.Injections {
		t.Fatalf("arrival process changed the plan size: %d vs %d", a.Injections, b.Injections)
	}
}

// TestMultiPhaseScenario: phases open strictly in order, the planned
// RIED swap fires exactly at its phase boundary, and the whole
// composition replays bit-identically.
func TestMultiPhaseScenario(t *testing.T) {
	sc := MultiPhaseScenario(6)
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Phases) != 3 {
		t.Fatalf("phases = %d", len(a.Phases))
	}
	for i, ph := range a.Phases {
		if ph.Executed != ph.Planned {
			t.Errorf("phase %d (%s): executed %d of %d", i, ph.Name, ph.Executed, ph.Planned)
		}
		if i > 0 && ph.End < a.Phases[i-1].End {
			t.Errorf("phase %d ended before phase %d", i, i-1)
		}
	}
	if a.Phases[0].Swapped || !a.Phases[1].Swapped || a.Phases[2].Swapped {
		t.Errorf("swap flags = %v %v %v, want only the swap phase",
			a.Phases[0].Swapped, a.Phases[1].Swapped, a.Phases[2].Swapped)
	}
	if !a.Swapped {
		t.Error("run-level swap flag not set")
	}
	if a.HotNode < 0 || a.HotNode >= sc.Nodes {
		t.Errorf("drain-phase hot node = %d", a.HotNode)
	}
	var errSum int
	for _, nr := range a.PerNode {
		errSum += nr.Errors
	}
	if errSum != 0 {
		t.Fatalf("%d handler errors across the composition", errSum)
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest || a.SimTime != b.SimTime {
		t.Fatalf("multi-phase runs diverged: %x/%v vs %x/%v", a.Digest, a.SimTime, b.Digest, b.SimTime)
	}
}

// TestPhaseBarrier: with two phases, no phase-2 execution may be
// observed before the phase-1 plan has fully executed.
func TestPhaseBarrier(t *testing.T) {
	sc := DefaultScenario(AllToAll, 4)
	sc.Timing = false
	sc.Burst = 2
	sc.Rounds = 1
	sc.Phases = []Phase{
		{Name: "one", Mix: []ElementMix{{Elem: "jam_sssum", Weight: 1}}},
		{Name: "two", Mix: []ElementMix{{Elem: "jam_iput", Weight: 1}}},
	}
	phase1 := sc.Nodes * (sc.Nodes - 1) * sc.Burst
	// Phase 1 is pure jam_sssum (every return is the payload sum, a huge
	// value); phase 2 is pure jam_iput (returns heap offsets < 4 MB).
	sum := expectedSum(scenarioPayload(sc.PayloadBytes))
	seen := 0
	bad := false
	sc.OnExecuted = func(node int, ret uint64, err error) {
		if err != nil {
			t.Errorf("node %d: %v", node, err)
			return
		}
		if ret == sum {
			seen++
			return
		}
		if seen < phase1 {
			bad = true
		}
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if bad {
		t.Error("phase 2 execution observed before phase 1 completed")
	}
	if res.Phases[0].Executed != phase1 || res.Phases[1].Executed != phase1 {
		t.Fatalf("phase executions %d/%d, want %d each",
			res.Phases[0].Executed, res.Phases[1].Executed, phase1)
	}
	if res.Phases[0].End > res.Phases[1].End {
		t.Fatal("phase ends out of order")
	}
}

// TestLegacyHotspotViaPhases: the hotspot pattern expressed as a single
// explicit phase produces the identical run to the phaseless spelling —
// the legacy surface is sugar over the phase machinery.
func TestLegacyHotspotViaPhases(t *testing.T) {
	plain := DefaultScenario(Hotspot, 6)
	plain.Rounds = 2

	phased := plain
	phased.Phases = []Phase{{Name: "only"}}

	a, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(phased)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest || a.SimTime != b.SimTime || a.Injections != b.Injections {
		t.Fatalf("phaseless and single-phase runs differ: %x/%v/%d vs %x/%v/%d",
			a.Digest, a.SimTime, a.Injections, b.Digest, b.SimTime, b.Injections)
	}
	if !b.Swapped {
		t.Error("hotspot builtin swap did not fire through the phase path")
	}
}

// TestSwapOnlyPhase: a phase with traffic but no plan for some senders
// and a swap-only phase chain straight through without deadlock.
func TestSwapOnlyPhase(t *testing.T) {
	sc := DefaultScenario(Fanout, 4)
	sc.Timing = false
	sc.Rounds = 1
	sc.Burst = 2
	// The middle phase plans zero messages: a swap-only stage built from
	// a traffic shape that emits nothing.
	sc.Phases = []Phase{
		{Name: "pre"},
		{Name: "swap-only", Traffic: "test-silent", Swap: &Swap{Node: 2, App: "tcbench"}},
		{Name: "post"},
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Phases[1].Swapped {
		t.Error("swap-only phase did not swap")
	}
	if res.Phases[1].Planned != 0 || res.Phases[1].Executed != 0 {
		t.Errorf("swap-only phase planned %d executed %d", res.Phases[1].Planned, res.Phases[1].Executed)
	}
	want := (sc.Nodes - 1) * sc.Burst
	if res.Phases[0].Executed != want || res.Phases[2].Executed != want {
		t.Errorf("traffic phases executed %d/%d, want %d each",
			res.Phases[0].Executed, res.Phases[2].Executed, want)
	}
}

// TestLeadingSwapOnlyPhase: a scenario may open with a zero-traffic
// swap phase; the run must chain into the real traffic, not deadlock.
func TestLeadingSwapOnlyPhase(t *testing.T) {
	sc := DefaultScenario(Fanout, 3)
	sc.Timing = false
	sc.Rounds = 1
	sc.Burst = 2
	sc.Phases = []Phase{
		{Name: "swap-first", Traffic: "test-silent", Swap: &Swap{Node: 1, App: "tcbench"}},
		{Name: "traffic"},
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Phases[0].Swapped {
		t.Error("leading swap did not fire")
	}
	want := (sc.Nodes - 1) * sc.Burst
	if res.Phases[1].Executed != want {
		t.Fatalf("traffic phase executed %d, want %d", res.Phases[1].Executed, want)
	}
}

// TestMultiPackageOracleMix: a single-element kvstore phase checked
// against per-node oracles — puts must return the oracle's slot for the
// same key sequence (per-node execution order is the issue order of the
// deterministic plan only when one sender targets each node, so use a
// fanout where node 0 is the only sender).
func TestMultiPackageOracleMix(t *testing.T) {
	sc := DefaultScenario(Fanout, 4)
	sc.Timing = false
	sc.Burst = 3
	sc.Rounds = 2
	sc.Phases = []Phase{{
		Name:       "puts",
		Mix:        []ElementMix{{Pkg: "kvstore", Elem: "jam_kv_put", Weight: 1}},
		Arg1Random: true,
	}}
	type exec struct {
		node int
		ret  uint64
	}
	var execs []exec
	sc.OnExecuted = func(node int, ret uint64, err error) {
		if err != nil {
			t.Errorf("node %d: %v", node, err)
			return
		}
		execs = append(execs, exec{node, ret})
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Injections == 0 {
		t.Fatal("no executions")
	}
	// Replay the plan against per-node oracles: regenerate the argument
	// stream by rerunning the same scenario and capturing per-burst args
	// through a second run's OnExecuted is not possible (args are not
	// surfaced), so instead check the structural invariant the oracle
	// guarantees: every put returns a slot < kvstore table size.
	for _, e := range execs {
		if e.ret >= 16384 {
			t.Fatalf("node %d put returned %d, want a slot < 16384", e.node, e.ret)
		}
	}
}
