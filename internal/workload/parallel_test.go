package workload

import (
	"runtime"
	"strings"
	"testing"

	"twochains/internal/vm"
)

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

// parallelScenario is shardedScenario at a worker count.
func parallelScenario(traffic string, seed uint64, workers int) Scenario {
	sc := shardedScenario(traffic, seed)
	sc.Workers = workers
	return sc
}

// TestWorkersSweepDeterminism is the registry-driven parallel-engine
// property: for every registered traffic shape (third-party ones
// included — registering is opting in) and two seeds, every worker count
// produces the bit-identical digest, simulated time, injection count,
// and receive-side VM counters (translations built, tier decisions) of
// the sequential engine.
// GOMAXPROCS is swept alongside so the windowed regime actually runs
// preemptively scheduled where the host allows it.
func TestWorkersSweepDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	// The fixture shapes have pins too; register them here so the sweep
	// does not depend on which tests ran before it.
	registerLifecycleShapes()
	registerOOB()
	for _, name := range TrafficNames() {
		name := name
		if strings.HasPrefix(name, "test-") && !hasPin(shardedPins, name) {
			continue // another test's fixture, registered before this one ran
		}
		t.Run(name, func(t *testing.T) {
			for _, seed := range []uint64{0x7c2c2021, 0x51edba5e} {
				base, baseErr := Run(parallelScenario(name, seed, 1))
				findPin(t, shardedPins, name, seed).verify(t, base, baseErr)
				for _, w := range workerSweep()[1:] {
					runtime.GOMAXPROCS(w)
					res, err := Run(parallelScenario(name, seed, w))
					// A shape that rejects the scenario must reject it
					// identically at every worker count.
					if baseErr != nil || err != nil {
						if err == nil || baseErr == nil || err.Error() != baseErr.Error() {
							t.Fatalf("seed %#x workers %d: error divergence: %v vs %v",
								seed, w, err, baseErr)
						}
						continue
					}
					if res.Digest != base.Digest {
						t.Errorf("seed %#x workers %d: digest %#x, want %#x",
							seed, w, res.Digest, base.Digest)
					}
					if res.SimTime != base.SimTime {
						t.Errorf("seed %#x workers %d: simulated time %d, want %d",
							seed, w, int64(res.SimTime), int64(base.SimTime))
					}
					if res.Injections != base.Injections {
						t.Errorf("seed %#x workers %d: injections %d, want %d",
							seed, w, res.Injections, base.Injections)
					}
					if got, want := vmCounters(res), vmCounters(base); got != want {
						t.Errorf("seed %#x workers %d: VM counters %+v, want %+v",
							seed, w, got, want)
					}
				}
			}
		})
	}
	t.Run("seed4003", testDeepLineageTie)
}

// testDeepLineageTie runs the one scenario known to break the property
// above (benchmark mesh_scale at seed 4003, found by PR 11): known defect
// "deep-lineage-tie", ROADMAP open item 3. Two cross-shard arrivals into
// node 3 tie on every key the windowed merge order carries (at, issueAt,
// pSchedAt) and their lineages stay tied five generations deeper, so the
// merge falls back to source-shard order where the sequential engine's
// seq follows the older, ninth-generation difference: node 3 folds two
// returns in the other order. Everything else — simulated time, counts,
// VM counters — must match the sequential run, and every windowed worker
// count must give one digest.
func testDeepLineageTie(t *testing.T) {
	run := func(w int) *Result {
		sc := meshScaleSeed4003()
		sc.Workers = w
		runtime.GOMAXPROCS(w)
		res, err := Run(sc)
		if err != nil {
			t.Fatalf("workers %d: %v", w, err)
		}
		return res
	}
	seq := run(1)
	findPin(t, shardedPins, "seed4003", 4003).verify(t, seq, nil)
	var par *Result
	for _, w := range workerSweep()[1:] {
		res := run(w)
		if res.SimTime != seq.SimTime || res.Injections != seq.Injections || vmCounters(res) != vmCounters(seq) {
			t.Errorf("workers %d: %d/%d/%+v, want %d/%d/%+v", w,
				int64(res.SimTime), res.Injections, vmCounters(res),
				int64(seq.SimTime), seq.Injections, vmCounters(seq))
		}
		if par == nil {
			par = res
		} else if res.Digest != par.Digest {
			t.Errorf("workers %d: digest %#x, other windowed runs gave %#x", w, res.Digest, par.Digest)
		}
	}
	if par.Digest != seq.Digest {
		t.Logf("known defect deep-lineage-tie: windowed digest %#x, sequential %#x", par.Digest, seq.Digest)
	}
}

// TestParallelGoldenScenarios re-runs the golden table on the parallel
// engine: the pinned digests and simulated times — captured on the
// pre-PR-3 sequential implementation — must come out of the multi-core
// engine unchanged, hot-swap phases included.
func TestParallelGoldenScenarios(t *testing.T) {
	for _, g := range goldenRuns {
		g := g
		t.Run("conservative/"+string(g.pattern), func(t *testing.T) {
			sc := DefaultScenario(g.pattern, g.nodes)
			sc.Rounds = 2
			sc.Burst = g.burst
			sc.Seed = g.seed
			sc.Workers = 4
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

// TestParallelComposedScenarios pins the phase-barrier machinery: the
// multi-phase and open-loop compositions run bit-identically on the
// parallel engine (phases hold it serial; the final phase opens up).
func TestParallelComposedScenarios(t *testing.T) {
	for _, p := range composedPins {
		p := p
		t.Run(p.name, func(t *testing.T) {
			sc := p.sc
			base, err := Run(sc)
			p.verify(t, base, err)
			if err != nil {
				t.FailNow()
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
// non-zero. A regression that silently degrades every run to serial
// stepping is invisible on a single-core container — wall-clock looks
// the same there — so the engagement is asserted on the simulation
// structure, not on timing.
func TestParallelWindowedEngagement(t *testing.T) {
	res, err := Run(parallelScenario(string(AllToAll), 0x7c2c2021, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers < 2 {
		t.Fatalf("parallel engine did not engage: workers = %d", res.Workers)
	}
	if res.Windows == 0 {
		t.Fatal("hold-free steady state executed zero parallel windows")
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
// GOMAXPROCS forced above 1: the multi-worker run must reproduce the
// sequential digest, simulated time, and injection count bit for bit
// while the workers genuinely run preemptively scheduled.
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
	sc.Workers = 4
	par, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if par.Workers != 4 {
		t.Fatalf("engaged %d workers, want 4", par.Workers)
	}
	if par.Digest != seq.Digest || par.SimTime != seq.SimTime || par.Injections != seq.Injections {
		t.Fatalf("speedup pair diverged: %#x/%d/%d vs %#x/%d/%d",
			par.Digest, int64(par.SimTime), par.Injections,
			seq.Digest, int64(seq.SimTime), seq.Injections)
	}
}
