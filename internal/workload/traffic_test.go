package workload

import (
	"sync"
	"testing"
)

// Fixture shapes register once per process: RegisterTraffic panics on
// duplicates, and tests must survive -count=N reruns.
var (
	pairOnce sync.Once
	oobOnce  sync.Once
)

// registryScenario builds a quick scenario for an arbitrary registered
// traffic shape — what the determinism property runs for every name, so
// third-party Traffic implementations inherit the check by registering.
func registryScenario(traffic string, seed uint64) Scenario {
	sc := DefaultScenario(Pattern(traffic), 5)
	sc.Timing = true
	sc.Burst = 4
	sc.Rounds = 2
	sc.Seed = seed
	return sc
}

// TestRegisteredTrafficDeterminism: for every registered traffic shape,
// equal seeds produce bit-identical digests, injection counts, and
// simulated times; a different seed produces a different run.
func TestRegisteredTrafficDeterminism(t *testing.T) {
	names := TrafficNames()
	if len(names) < 4 {
		t.Fatalf("registry has %d shapes, want >= 4 (fanout/alltoall/hotspot/ring)", len(names))
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			a, errA := Run(registryScenario(name, 0xfeed))
			b, errB := Run(registryScenario(name, 0xfeed))
			// A shape that rejects the scenario must reject it identically.
			if errA != nil || errB != nil {
				if errB == nil || errA == nil || errA.Error() != errB.Error() {
					t.Fatalf("same-seed error divergence: %v vs %v", errA, errB)
				}
				return
			}
			if a.Digest != b.Digest || a.Injections != b.Injections || a.SimTime != b.SimTime {
				t.Errorf("same-seed runs diverged: digest %x/%x injections %d/%d time %v/%v",
					a.Digest, b.Digest, a.Injections, b.Injections, a.SimTime, b.SimTime)
			}
			if a.Injections == 0 {
				// A legitimately silent shape (e.g. a swap-only helper) has
				// nothing further to pin.
				return
			}
			c, err := Run(registryScenario(name, 0xfeed^0xdead))
			if err != nil {
				t.Fatal(err)
			}
			if a.Digest == c.Digest && a.SimTime == c.SimTime {
				t.Error("different seeds produced identical runs")
			}
		})
	}
}

// TestRegisterTrafficExtension: a scenario can select a freshly
// registered shape by name, and the plan honours its emission order.
func TestRegisterTrafficExtension(t *testing.T) {
	pairOnce.Do(func() {
		RegisterTraffic("test-pair", func() Traffic {
			return TrafficFunc(func(p *Planner) error {
				// Node 0 <-> node 1 only, regardless of mesh size.
				for r := 0; r < p.Rounds(); r++ {
					p.Emit(0, 1)
					p.Emit(1, 0)
				}
				return nil
			})
		})
	})
	sc := DefaultScenario("test-pair", 4)
	sc.Timing = false
	sc.Burst = 2
	sc.Rounds = 3
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	for i, nr := range res.PerNode {
		want := 0
		if i < 2 {
			want = sc.Rounds * sc.Burst
		}
		if nr.Sent != want || nr.Executed != want {
			t.Errorf("node %d: sent %d executed %d, want %d", i, nr.Sent, nr.Executed, want)
		}
	}
}

// TestRingPattern: the ring shape addresses each node exactly
// rounds*burst times.
func TestRingPattern(t *testing.T) {
	sc := DefaultScenario(Ring, 5)
	sc.Timing = false
	sc.Burst = 3
	sc.Rounds = 2
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	for i, nr := range res.PerNode {
		if nr.Executed != sc.Rounds*sc.Burst {
			t.Errorf("node %d executed %d, want %d", i, nr.Executed, sc.Rounds*sc.Burst)
		}
	}
}

// registerOOB adds the shape whose plan is rejected: by then Run has
// already built the system (plans need its topology).
func registerOOB() {
	oobOnce.Do(func() {
		RegisterTraffic("test-oob", func() Traffic {
			return TrafficFunc(func(p *Planner) error {
				p.Emit(0, p.Nodes()) // one past the end
				return nil
			})
		})
	})
}

// TestEmitOutOfRange: a generator emitting outside the topology is a
// typed scenario error, not a panic or a silent drop.
func TestEmitOutOfRange(t *testing.T) {
	registerOOB()
	sc := DefaultScenario("test-oob", 3)
	_, err := Run(sc)
	var serr *ScenarioError
	if !asScenarioError(err, &serr) {
		t.Fatalf("out-of-range emit: %v", err)
	}
}
