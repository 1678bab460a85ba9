package workload

import "testing"

// The tests in this file keep the names they had when each scenario was
// run on a second, multi-core engine and compared with the first; they
// now check the same scenarios against pinned outcomes (golden_test.go).

// TestWorkersSweepDeterminism pins every traffic shape in the table (the
// test fixtures included) on four fabric shards at two seeds, the
// benchmark's mesh_scale shape at seed 4003, and the root package's
// 64-node mesh shapes.
func TestWorkersSweepDeterminism(t *testing.T) {
	pinned := map[string]bool{}
	for _, p := range shardedPins {
		pinned[p.name] = true
	}
	for _, name := range TrafficNames() {
		if !pinned[name] {
			t.Errorf("traffic %q has no rows in shardedPins", name)
		}
	}
	runPins(t, shardedPins)
}

// TestParallelGoldenScenarios runs the golden table a second time in the
// process: by now every scenario of it draws address-space backings and
// cache-model tag arrays that another run dirtied.
func TestParallelGoldenScenarios(t *testing.T) {
	for _, g := range goldenRuns {
		g := g
		t.Run("conservative/"+string(g.pattern), func(t *testing.T) { g.check(t) })
	}
}

// TestParallelComposedScenarios pins the phase-barrier machinery: the
// open-loop and multi-phase compositions on four fabric shards and on
// one, and the 64-node chaos composition.
func TestParallelComposedScenarios(t *testing.T) {
	runPins(t, composedPins)
}
