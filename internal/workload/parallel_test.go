package workload

import (
	"runtime"
	"testing"

	"twochains/internal/sim"
	"twochains/internal/vm"
)

// specBudget is the speculation budget the speculative legs of the
// parallel property tests run with: about two cross-shard lookaheads, so
// the reachability bound (not the budget cap) is what limits most
// windows.
const specBudget = 2 * sim.Microsecond

// workerSweep is the worker-count axis of the parallel determinism
// property: the sequential engine, two fixed parallel widths, and
// whatever the host offers (deduplicated).
func workerSweep() []int {
	sweep := []int{1, 2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		sweep = append(sweep, n)
	}
	return sweep
}

// vmCounts are the receive-side VM counts of a run. They count
// simulated events (deliveries, slot hits, promotions), so they belong to
// the determinism property like the digest does.
type vmCounts struct {
	compiles, deopts uint64
	tier             vm.TierStats
}

func vmCounters(r *Result) vmCounts {
	return vmCounts{r.Mesh.JITCompiles, r.Mesh.JITDeopts, r.Mesh.Tier}
}

// parallelScenario builds the scenario the sweep runs for an arbitrary
// registered traffic shape: big enough for four fabric shards and real
// cross-shard traffic, small enough for the -race CI gate.
func parallelScenario(traffic string, seed uint64, workers int) Scenario {
	sc := DefaultScenario(Pattern(traffic), 9)
	sc.Timing = true
	sc.Burst = 4
	sc.Rounds = 2
	sc.Shards = 4
	sc.Seed = seed
	sc.Workers = workers
	return sc
}

// TestWorkersSweepDeterminism is the registry-driven parallel-engine
// property: for every registered traffic shape (third-party ones
// included — registering is opting in) and two seeds, every worker count
// — with and without speculative windows — produces the bit-identical
// digest, simulated time, injection count, and receive-side VM counters
// (translations built, tier decisions) of the sequential engine.
// GOMAXPROCS is swept alongside so the windowed regime actually runs
// preemptively scheduled where the host allows it.
func TestWorkersSweepDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, name := range TrafficNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, seed := range []uint64{0x7c2c2021, 0x51edba5e} {
				base, baseErr := Run(parallelScenario(name, seed, 1))
				for _, w := range workerSweep()[1:] {
					for _, spec := range []sim.Duration{0, specBudget} {
						// One speculative leg per shape/seed keeps the
						// -race sweep inside the CI budget.
						if spec > 0 && w != 4 {
							continue
						}
						runtime.GOMAXPROCS(w)
						sc := parallelScenario(name, seed, w)
						sc.Speculation = spec
						res, err := Run(sc)
						// A shape that rejects the scenario must reject it
						// identically at every worker count.
						if baseErr != nil || err != nil {
							if err == nil || baseErr == nil || err.Error() != baseErr.Error() {
								t.Fatalf("seed %#x workers %d spec %d: error divergence: %v vs %v",
									seed, w, spec, err, baseErr)
							}
							continue
						}
						if res.Digest != base.Digest {
							t.Errorf("seed %#x workers %d spec %d: digest %#x, want %#x",
								seed, w, spec, res.Digest, base.Digest)
						}
						if res.SimTime != base.SimTime {
							t.Errorf("seed %#x workers %d spec %d: simulated time %d, want %d",
								seed, w, spec, int64(res.SimTime), int64(base.SimTime))
						}
						if res.Injections != base.Injections {
							t.Errorf("seed %#x workers %d spec %d: injections %d, want %d",
								seed, w, spec, res.Injections, base.Injections)
						}
						if got, want := vmCounters(res), vmCounters(base); got != want {
							t.Errorf("seed %#x workers %d spec %d: VM counters %+v, want %+v",
								seed, w, spec, got, want)
						}
					}
				}
			}
		})
	}
}

// TestParallelGoldenScenarios re-runs the golden table on the parallel
// engine, conservative and speculative: the pinned digests and simulated
// times — captured on the pre-PR-3 sequential implementation — must come
// out of the multi-core engine unchanged, hot-swap phases included.
func TestParallelGoldenScenarios(t *testing.T) {
	for _, spec := range []sim.Duration{0, specBudget} {
		name := "conservative"
		if spec > 0 {
			name = "speculative"
		}
		for _, g := range goldenRuns {
			g := g
			t.Run(name+"/"+string(g.pattern), func(t *testing.T) {
				sc := DefaultScenario(g.pattern, g.nodes)
				sc.Rounds = 2
				sc.Burst = g.burst
				sc.Seed = g.seed
				sc.Workers = 4
				sc.Speculation = spec
				res, err := Run(sc)
				if err != nil {
					t.Fatal(err)
				}
				if res.Digest != g.digest {
					t.Errorf("digest = %#x, want %#x", res.Digest, g.digest)
				}
				if int64(res.SimTime) != g.simTime {
					t.Errorf("simulated time = %d, want %d", int64(res.SimTime), g.simTime)
				}
				if res.Injections != g.inj {
					t.Errorf("injections = %d, want %d", res.Injections, g.inj)
				}
			})
		}
	}
}

// TestParallelComposedScenarios pins the phase-barrier machinery: the
// multi-phase and open-loop compositions run bit-identically on the
// parallel engine (phases hold it serial; the final phase opens up).
func TestParallelComposedScenarios(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(int) Scenario
	}{
		{"kvstore", KVStoreScenario},
		{"multiphase", MultiPhaseScenario},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			sc := tc.mk(8)
			sc.Shards = 4
			base, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			sc.Workers = 4
			res, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if res.Digest != base.Digest || res.SimTime != base.SimTime || res.Injections != base.Injections {
				t.Fatalf("parallel run diverged: %#x/%d/%d vs %#x/%d/%d",
					res.Digest, int64(res.SimTime), res.Injections,
					base.Digest, int64(base.SimTime), base.Injections)
			}
		})
	}
}

// TestParallelRepeatable re-runs one parallel scenario twice in-process:
// worker goroutines, hand-off lanes, and shared pools must leave no
// cross-run state.
func TestParallelRepeatable(t *testing.T) {
	sc := DefaultScenario(AllToAll, 9)
	sc.Rounds = 2
	sc.Shards = 4
	sc.Workers = 4
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest || a.SimTime != b.SimTime {
		t.Fatalf("back-to-back parallel runs diverged: %#x/%d vs %#x/%d",
			a.Digest, int64(a.SimTime), b.Digest, int64(b.SimTime))
	}
	if a.Workers < 2 {
		t.Fatalf("parallel engine did not engage: workers = %d", a.Workers)
	}
}

// TestParallelWindowedEngagement pins that a hold-free steady state
// actually runs in the windowed regime: the window counter must be
// non-zero, conservative and speculative alike. A regression that
// silently degrades every run to serial stepping is invisible on a
// single-core container — wall-clock looks the same there — so the
// engagement is asserted on the simulation structure, not on timing.
func TestParallelWindowedEngagement(t *testing.T) {
	for _, spec := range []sim.Duration{0, specBudget} {
		sc := parallelScenario(string(AllToAll), 0x7c2c2021, 4)
		sc.Speculation = spec
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if res.Workers < 2 {
			t.Fatalf("spec %d: parallel engine did not engage: workers = %d", spec, res.Workers)
		}
		if res.Windows == 0 {
			t.Fatalf("spec %d: hold-free steady state executed zero parallel windows", spec)
		}
	}
	// The sequential engine reports no windows.
	seq, err := Run(parallelScenario(string(AllToAll), 0x7c2c2021, 1))
	if err != nil {
		t.Fatal(err)
	}
	if seq.Windows != 0 {
		t.Fatalf("sequential run reported %d windows", seq.Windows)
	}
}

// TestParallelSpeedupPairDigest is the test-scale version of the
// benchmark speedup pair (BenchmarkMeshAllToAll* vs their W1 twins) with
// GOMAXPROCS forced above 1: the multi-worker run — speculative included
// — must reproduce the sequential digest, simulated time, and injection
// count bit for bit while the workers genuinely run preemptively
// scheduled.
func TestParallelSpeedupPairDigest(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(4)
	sc := DefaultScenario(AllToAll, 16)
	sc.Rounds = 2
	sc.Shards = 4
	seq, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []sim.Duration{0, specBudget} {
		sc.Workers = 4
		sc.Speculation = spec
		par, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if par.Workers != 4 {
			t.Fatalf("spec %d: engaged %d workers, want 4", spec, par.Workers)
		}
		if par.Digest != seq.Digest || par.SimTime != seq.SimTime || par.Injections != seq.Injections {
			t.Fatalf("spec %d: speedup pair diverged: %#x/%d/%d vs %#x/%d/%d", spec,
				par.Digest, int64(par.SimTime), par.Injections,
				seq.Digest, int64(seq.SimTime), seq.Injections)
		}
	}
}
