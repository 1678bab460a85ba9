package workload

import (
	"errors"
	"math"
	"strings"
	"testing"

	"twochains/internal/sim"
)

// chaosScenario is the failure-injection composition chaosPins pins:
// perturbed fabric, an MMPP bursty phase, then a node failure mid-phase
// and its rejoin in a drain phase.
func chaosScenario(seed uint64) Scenario {
	sc := DefaultScenario(AllToAll, 9)
	sc.Burst = 4
	sc.Rounds = 2
	sc.Shards = 4
	sc.Seed = seed
	sc.Chaos = &ChaosSpec{MinDelay: 20 * sim.Nanosecond, MaxDelay: 120 * sim.Nanosecond}
	sc.Phases = []Phase{
		{Name: "bursty", Arrival: &Arrival{Kind: MMPP, RatePerSec: 2e6,
			BurstRatePerSec: 2e7, MeanBase: 4 * sim.Microsecond, MeanBurst: sim.Microsecond}},
		{Name: "failing", Fail: []Fail{{Node: 2, At: sim.Microsecond}}},
		{Name: "drain", Rejoin: []Rejoin{{Node: 2}}},
	}
	return sc
}

// TestChaosDeterminismSweep is the acceptance property of the chaos
// suite: with fabric perturbation, MMPP arrivals, and a mid-run node
// failure plus rejoin, equal seeds produce the pinned digests, simulated
// times, injection counts, and loss ledgers.
func TestChaosDeterminismSweep(t *testing.T) {
	for _, p := range chaosPins {
		if res := p.run(t); res != nil && res.Lost == 0 {
			t.Errorf("seed %#x: failure injected but nothing was lost", p.sc.Seed)
		}
	}
}

// TestFailRejoinDrain pins the loss ledger of a fail/rejoin run: the
// run drains to quiescence (Run's internal accounting already enforces
// executed + errors + lost == planned), the dead node's inbound backlog
// and abandoned plan are lost rather than hung, the drain phase reaches
// the rejoined node again, and a repeat run reproduces the ledger bit
// for bit.
func TestFailRejoinDrain(t *testing.T) {
	sc := DefaultScenario(AllToAll, 6)
	sc.Burst = 4
	sc.Rounds = 2
	sc.Seed = 0x7c2c2021
	sc.Phases = []Phase{
		{Name: "steady"},
		{Name: "failing", Fail: []Fail{{Node: 1, At: 500 * sim.Nanosecond}}},
		{Name: "drain", Rejoin: []Rejoin{{Node: 1}}},
	}
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Lost == 0 {
		t.Fatal("mid-phase failure lost nothing: the fail did not bite")
	}
	planned := 0
	for _, ph := range a.Phases {
		planned += ph.Planned
	}
	var errSum int
	for _, nr := range a.PerNode {
		errSum += nr.Errors
	}
	if a.Injections+errSum+a.Lost != planned {
		t.Fatalf("ledger off: %d executed + %d errors + %d lost != %d planned",
			a.Injections, errSum, a.Lost, planned)
	}
	// The drain phase must actually reach the rejoined node: its executed
	// count ends above what the fail froze it at.
	if a.PerNode[1].Executed == 0 {
		t.Fatal("rejoined node executed nothing")
	}
	if a.Phases[2].End <= a.Phases[1].End {
		t.Fatal("drain phase did not advance simulated time")
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest || a.SimTime != b.SimTime || a.Lost != b.Lost {
		t.Fatalf("repeat run diverged: %#x/%d/%d vs %#x/%d/%d",
			a.Digest, int64(a.SimTime), a.Lost, b.Digest, int64(b.SimTime), b.Lost)
	}
}

// TestArrivalValidation pins the table-driven arrival validation and
// the failure-plan static checks: every rejection is a typed
// *ScenarioError naming the offending field.
func TestArrivalValidation(t *testing.T) {
	base := func() Scenario {
		sc := DefaultScenario(AllToAll, 4)
		sc.Timing = false
		return sc
	}
	cases := []struct {
		name  string
		mut   func(*Scenario)
		field string
	}{
		{"unknown kind", func(sc *Scenario) { sc.Phases = []Phase{{Arrival: &Arrival{Kind: 99}}} }, "Phases[0].Arrival.Kind"},
		{"poisson no rate", func(sc *Scenario) { sc.Phases = []Phase{{Arrival: &Arrival{Kind: Poisson}}} }, "Phases[0].Arrival.RatePerSec"},
		{"mmpp no burst rate", func(sc *Scenario) {
			sc.Phases = []Phase{{Arrival: &Arrival{Kind: MMPP, RatePerSec: 1e6, MeanBase: 1, MeanBurst: 1}}}
		}, "Phases[0].Arrival.BurstRatePerSec"},
		{"mmpp no sojourn", func(sc *Scenario) {
			sc.Phases = []Phase{{Arrival: &Arrival{Kind: MMPP, RatePerSec: 1e6, BurstRatePerSec: 1e7, MeanBurst: 1}}}
		}, "Phases[0].Arrival.MeanBase"},
		{"poisson NaN rate", func(sc *Scenario) {
			sc.Phases = []Phase{{Arrival: &Arrival{Kind: Poisson, RatePerSec: math.NaN()}}}
		}, "Phases[0].Arrival.RatePerSec"},
		{"poisson +Inf rate", func(sc *Scenario) {
			sc.Phases = []Phase{{Arrival: &Arrival{Kind: Poisson, RatePerSec: math.Inf(1)}}}
		}, "Phases[0].Arrival.RatePerSec"},
		{"mmpp NaN base rate", func(sc *Scenario) {
			sc.Phases = []Phase{{Arrival: &Arrival{Kind: MMPP, RatePerSec: math.NaN(), BurstRatePerSec: 1e7, MeanBase: 1, MeanBurst: 1}}}
		}, "Phases[0].Arrival.RatePerSec"},
		{"mmpp NaN burst rate", func(sc *Scenario) {
			sc.Phases = []Phase{{Arrival: &Arrival{Kind: MMPP, RatePerSec: 1e6, BurstRatePerSec: math.NaN(), MeanBase: 1, MeanBurst: 1}}}
		}, "Phases[0].Arrival.BurstRatePerSec"},
		{"phase arrival blame", func(sc *Scenario) {
			sc.Phases = []Phase{{}, {Arrival: &Arrival{Kind: 77}}}
		}, "Phases[1].Arrival.Kind"},
		{"fail out of range", func(sc *Scenario) {
			sc.Phases = []Phase{{Fail: []Fail{{Node: 9}}}}
		}, "Phases[0].Fail[0].Node"},
		{"negative fail offset", func(sc *Scenario) {
			sc.Phases = []Phase{{Fail: []Fail{{Node: 1, At: -1}}}}
		}, "Phases[0].Fail[0].At"},
		{"double fail", func(sc *Scenario) {
			sc.Phases = []Phase{{Fail: []Fail{{Node: 1}}}, {Fail: []Fail{{Node: 1}}}}
		}, "Phases[1].Fail[0].Node"},
		{"rejoin live node", func(sc *Scenario) {
			sc.Phases = []Phase{{Rejoin: []Rejoin{{Node: 1}}}}
		}, "Phases[0].Rejoin[0].Node"},
		{"chaos bounds", func(sc *Scenario) {
			sc.Chaos = &ChaosSpec{MinDelay: 10, MaxDelay: 5}
		}, "Chaos.MinDelay"},
		{"bare chaos backend", func(sc *Scenario) { sc.Backend = "chaos" }, "Backend"},
		{"tenant fail", func(sc *Scenario) {
			// One lane may carry the failure plan; two tenants inheriting
			// scenario-level phases that declare it are two.
			sc.Phases = []Phase{{Fail: []Fail{{Node: 1}}}}
			sc.Tenants = []TenantSpec{{Name: "gold", Weight: 1}, {Name: "bronze", Weight: 1}}
		}, "Fail"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sc := base()
			c.mut(&sc)
			err := sc.Validate()
			var se *ScenarioError
			if !errors.As(err, &se) {
				t.Fatalf("Validate() = %v, want *ScenarioError", err)
			}
			if !strings.Contains(se.Field, c.field) {
				t.Fatalf("blamed field %q, want one containing %q (reason: %s)", se.Field, c.field, se.Reason)
			}
			// Run must reject identically.
			if _, rerr := Run(sc); rerr == nil || rerr.Error() != err.Error() {
				t.Fatalf("Run rejection %v != Validate rejection %v", rerr, err)
			}
		})
	}
	// A legal fail -> rejoin -> fail-again sequence passes.
	sc := base()
	sc.Phases = []Phase{
		{Fail: []Fail{{Node: 1, At: 100}}},
		{Rejoin: []Rejoin{{Node: 1}}, Fail: []Fail{{Node: 1, At: 100}}},
		{Rejoin: []Rejoin{{Node: 1}}},
	}
	if err := sc.Validate(); err != nil {
		t.Fatalf("legal fail/rejoin cycle rejected: %v", err)
	}
}
