package workload

import (
	"os"
	"reflect"
	"strings"
	"testing"
)

// fixtureShapes join the traffic table for this package's tests.
var fixtureShapes = map[string]func(p *planner){
	// Node 0 <-> node 1 only, regardless of mesh size.
	"test-pair": func(p *planner) {
		for r := 0; r < p.spec.rounds; r++ {
			p.emit(0, 1)
			p.emit(1, 0)
		}
	},
	// Emits nothing: the traffic of a swap-only phase.
	"test-silent": func(p *planner) {},
	// A plan that is rejected: by then Run has already built the system.
	"test-oob": func(p *planner) {
		p.emit(0, p.nodes) // one past the end
	},
	// A self-loop passes planning (both ends are in range) and is refused
	// at issue: the runner's issueErr return.
	"test-selfloop": func(p *planner) {
		p.emit(0, 0)
	},
	// A built-in mid-phase swap naming an app that is not in tcapp's
	// table fails when it fires: the runner's swapErr return.
	"test-badswap": func(p *planner) {
		for r := 0; r < p.spec.rounds; r++ {
			p.emit(0, 1)
		}
		p.swapAtHalf(1, "test-no-such-app")
	},
}

// TestMain adds the fixture shapes before any test runs, so every test
// sees the same table.
func TestMain(m *testing.M) {
	for name, gen := range fixtureShapes {
		traffics[name] = gen
	}
	os.Exit(m.Run())
}

// registryScenario builds a quick scenario for any traffic shape — what
// the determinism property runs for every name in the table.
func registryScenario(traffic string, seed uint64) Scenario {
	sc := DefaultScenario(Pattern(traffic), 5)
	sc.Timing = true
	sc.Burst = 4
	sc.Rounds = 2
	sc.Seed = seed
	return sc
}

// TestRegisteredTrafficDeterminism: for every traffic shape in the table,
// equal seeds produce bit-identical digests, injection counts, and
// simulated times; a different seed produces a different run.
func TestRegisteredTrafficDeterminism(t *testing.T) {
	names := TrafficNames()
	var builtin []string
	for _, name := range names {
		if !strings.HasPrefix(name, "test-") {
			builtin = append(builtin, name)
		}
	}
	if want := []string{"alltoall", "fanout", "hotspot"}; !reflect.DeepEqual(builtin, want) {
		t.Fatalf("built-in shapes %v, want %v", builtin, want)
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

// TestRegisterTrafficExtension: a scenario can select a shape added to
// the table by name, and the plan honours its emission order.
func TestRegisterTrafficExtension(t *testing.T) {
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

// TestEmitOutOfRange: a generator emitting outside the topology is a
// typed scenario error, not a panic or a silent drop.
func TestEmitOutOfRange(t *testing.T) {
	sc := DefaultScenario("test-oob", 3)
	_, err := Run(sc)
	var serr *ScenarioError
	if !asScenarioError(err, &serr) {
		t.Fatalf("out-of-range emit: %v", err)
	}
}
