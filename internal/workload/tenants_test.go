package workload

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"twochains/internal/sim"
)

// wantTenantError asserts both Validate and Run reject the scenario
// with a *ScenarioError blaming the expected field.
func wantTenantError(t *testing.T, sc Scenario, field string) {
	t.Helper()
	for _, err := range []error{sc.Validate(), func() error { _, err := Run(sc); return err }()} {
		var se *ScenarioError
		if !errors.As(err, &se) {
			t.Fatalf("error = %v, want *ScenarioError for %s", err, field)
		}
		if se.Field != field {
			t.Fatalf("blamed %q (%s), want %q", se.Field, se.Reason, field)
		}
	}
}

// tenantScenario is the shared small multi-tenant fixture: two tenants
// of unequal weight offering all-to-all open-loop traffic.
func tenantScenario(nodes int) Scenario {
	sc := DefaultScenario(AllToAll, nodes)
	sc.Rounds = 2
	sc.Burst = 4
	sc.Seed = 0x7c2c2025
	sc.Phases = []Phase{{Arrival: &Arrival{Kind: Poisson, RatePerSec: 150_000}}}
	sc.Mix = []ElementMix{{Elem: "jam_iput", Weight: 1}}
	sc.Tenants = []TenantSpec{
		{Name: "gold", Weight: 3},
		{Name: "bronze", Weight: 1},
	}
	return sc
}

// TestTenantValidation pins the typed validation of the tenant surface:
// every rejection is a *ScenarioError naming the offending field.
func TestTenantValidation(t *testing.T) {
	base := tenantScenario(4)

	sc := base
	sc.Tenants = []TenantSpec{{Name: "gold", Weight: 0}}
	wantTenantError(t, sc, "Tenants[0].Weight")

	sc = base
	sc.Tenants = []TenantSpec{{Name: "", Weight: 1}}
	wantTenantError(t, sc, "Tenants[0].Name")

	sc = base
	sc.Tenants = []TenantSpec{{Name: "gold", Weight: 1}, {Name: "gold", Weight: 2}}
	wantTenantError(t, sc, "Tenants[1].Name")

	sc = base
	sc.Tenants = []TenantSpec{{Name: "gold", Weight: 1, Admit: &AdmitSpec{RatePerSec: 0}}}
	wantTenantError(t, sc, "Tenants[0].Admit.RatePerSec")

	sc = base
	sc.Tenants = []TenantSpec{{Name: "gold", Weight: 1, Load: -2}}
	wantTenantError(t, sc, "Tenants[0].Load")

	// NaN and +Inf pass a plain sign check; each float is refused.
	sc = base
	sc.Tenants = []TenantSpec{{Name: "gold", Weight: 1, Load: math.NaN()}}
	wantTenantError(t, sc, "Tenants[0].Load")

	sc = base
	sc.Tenants = []TenantSpec{{Name: "gold", Weight: 1, Admit: &AdmitSpec{RatePerSec: math.Inf(1)}}}
	wantTenantError(t, sc, "Tenants[0].Admit.RatePerSec")

	sc = base
	sc.Tenants = []TenantSpec{{Name: "gold", Weight: 1, Admit: &AdmitSpec{RatePerSec: 1e6, Burst: math.NaN()}}}
	wantTenantError(t, sc, "Tenants[0].Admit.Burst")

	// A bucket smaller than one burst can never admit it; with Defer
	// the run would re-issue forever, so only Validate is called.
	sc = DefaultScenario(AllToAll, 3)
	sc.Tenants = []TenantSpec{{Name: "gold", Weight: 1, Admit: &AdmitSpec{RatePerSec: 50_000, Burst: 4, Defer: true}}}
	var se *ScenarioError
	if err := sc.Validate(); !errors.As(err, &se) || se.Field != "Tenants[0].Admit.Burst" {
		t.Fatalf("bucket smaller than Burst %d: Validate() = %v, want *ScenarioError on Tenants[0].Admit.Burst", sc.Burst, err)
	}

	// A tenant phase referencing an unregistered app blames the tenant's
	// phase field, not the scenario's.
	sc = base
	sc.Tenants = []TenantSpec{{Name: "gold", Weight: 1, Phases: []Phase{{
		Mix: []ElementMix{{Pkg: "no-such-app", Elem: "jam_x", Weight: 1}},
	}}}}
	wantTenantError(t, sc, "Tenants[0].Phases[0].Mix[0].Pkg")

	// RIED swaps stay out of tenant phases.
	sc = base
	sc.Tenants = []TenantSpec{{Name: "gold", Weight: 1, Phases: []Phase{{
		Mix:  []ElementMix{{Elem: "jam_iput", Weight: 1}},
		Swap: &Swap{Node: 0},
	}}}}
	wantTenantError(t, sc, "Tenants[0].Phases[0].Swap")

	if err := base.Validate(); err != nil {
		t.Fatalf("valid tenant scenario rejected: %v", err)
	}
}

// TestTenantOverloadWeightedShare is the acceptance check of the fair
// queue: at 4x offered load, two tenants weighted 3:1 must measure
// per-tenant goodput within 10% of a 3:1 share inside the overlap
// window, and every planned message must be accounted for.
func TestTenantOverloadWeightedShare(t *testing.T) {
	res, err := Run(OverloadScenario(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tenants) != 2 {
		t.Fatalf("tenants reported: %d", len(res.Tenants))
	}
	gold, bronze := res.Tenants[0], res.Tenants[1]
	if gold.Name != "gold" || bronze.Name != "bronze" {
		t.Fatalf("tenant order: %s, %s", gold.Name, bronze.Name)
	}
	if gold.GoodputPerSec <= 0 || bronze.GoodputPerSec <= 0 {
		t.Fatalf("goodput: gold %v bronze %v", gold.GoodputPerSec, bronze.GoodputPerSec)
	}
	ratio := gold.GoodputPerSec / bronze.GoodputPerSec
	if ratio < 2.7 || ratio > 3.3 {
		t.Errorf("goodput ratio %.3f outside 3:1 +/- 10%% (gold %.0f/s, bronze %.0f/s, window %v)",
			ratio, gold.GoodputPerSec, bronze.GoodputPerSec, res.OverlapWindow)
	}
	for _, tr := range res.Tenants {
		if tr.Serviced+tr.Dropped != tr.Planned {
			t.Errorf("tenant %s: serviced %d + dropped %d != planned %d",
				tr.Name, tr.Serviced, tr.Dropped, tr.Planned)
		}
		if tr.P99Latency <= 0 {
			t.Errorf("tenant %s: p99 latency %v", tr.Name, tr.P99Latency)
		}
	}
	if res.OverlapWindow <= 0 {
		t.Errorf("overlap window %v", res.OverlapWindow)
	}
}

// TestTenantStarvationResistance pins isolation under an aggressor: a
// 10x overload tenant must not push a well-behaved equal-weight tenant's
// serviced share below ~90% of its weight share of the overlap window.
func TestTenantStarvationResistance(t *testing.T) {
	sc := tenantScenario(4)
	// Both tenants offer more than their half of the node service
	// capacity, the aggressor 10x more: only the fair queue keeps the
	// victim at its share.
	sc.Rounds = 8
	sc.Phases = []Phase{{Arrival: &Arrival{Kind: Poisson, RatePerSec: 250_000}}}
	sc.Tenants = []TenantSpec{
		{Name: "aggressor", Weight: 1, Load: 10},
		{Name: "victim", Weight: 1},
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	agg, vic := res.Tenants[0], res.Tenants[1]
	if vic.GoodputPerSec <= 0 {
		t.Fatalf("victim starved outright: %+v", vic)
	}
	// Equal weights: inside the overlap window the victim is entitled to
	// half the serviced throughput.
	share := vic.GoodputPerSec / (vic.GoodputPerSec + agg.GoodputPerSec)
	if share < 0.45 {
		t.Errorf("victim share %.3f under a 10x aggressor, want >= 0.45 (victim %.0f/s, aggressor %.0f/s)",
			share, vic.GoodputPerSec, agg.GoodputPerSec)
	}
}

// TestTenantAdmissionPolicies drives a tenant into its token bucket both
// ways: Drop sheds load (accounting still balances), Defer backs the
// sender off until every message eventually lands.
func TestTenantAdmissionPolicies(t *testing.T) {
	mk := func(deferPolicy bool) Scenario {
		sc := DefaultScenario(AllToAll, 3)
		sc.Rounds = 2
		sc.Burst = 4
		sc.Seed = 0x7c2c2025
		sc.Mix = []ElementMix{{Elem: "jam_iput", Weight: 1}}
		sc.Tenants = []TenantSpec{{
			Name: "metered", Weight: 1,
			Admit: &AdmitSpec{RatePerSec: 50_000, Burst: 4, Defer: deferPolicy},
		}}
		return sc
	}
	res, err := Run(mk(false))
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Tenants[0]
	if tr.Dropped == 0 {
		t.Errorf("drop policy shed nothing: %+v", tr)
	}
	if tr.Serviced+tr.Dropped != tr.Planned {
		t.Errorf("drop accounting: serviced %d + dropped %d != planned %d", tr.Serviced, tr.Dropped, tr.Planned)
	}

	res, err = Run(mk(true))
	if err != nil {
		t.Fatal(err)
	}
	tr = res.Tenants[0]
	if tr.Deferred == 0 {
		t.Errorf("defer policy never deferred: %+v", tr)
	}
	if tr.Dropped != 0 || tr.Serviced != tr.Planned {
		t.Errorf("defer policy lost messages: %+v", tr)
	}
}

// tenantFailScenario composes node failure with tenants: gold's phases
// carry the failure plan (a closed-loop warmup, an open-loop phase that
// fails node 1 mid-flight, a closed-loop drain that rejoins it) while
// bronze offers open-loop traffic behind a deferring token bucket the
// whole time. Both lanes overload the receivers, so when the node dies
// each has sends credit-stalled on its channels out of it, a backlog
// into it, and a service in progress on its fair arbiter.
func tenantFailScenario(nodes int) Scenario {
	sc := tenantScenario(nodes)
	sc.Rounds = 12
	sc.Burst = 8
	closed := &Arrival{Kind: ClosedLoop}
	sc.Tenants = []TenantSpec{
		{Name: "gold", Weight: 3, Phases: []Phase{
			{Name: "steady", Rounds: 1, Arrival: closed},
			{Name: "failing", Arrival: &Arrival{Kind: Poisson, RatePerSec: 2e7},
				Fail: []Fail{{Node: 1, At: 10 * sim.Microsecond}}},
			{Name: "drain", Rounds: 1, Arrival: closed, Rejoin: []Rejoin{{Node: 1}}},
		}},
		{Name: "bronze", Weight: 1, Load: 100,
			Admit: &AdmitSpec{RatePerSec: 4e7, Burst: 8, Defer: true}},
	}
	return sc
}

// TestTenantFailRejoinLedger pins the per-lane loss ledger: a node fails
// under two tenants' traffic and rejoins later; every tenant accounts
// each planned message exactly once (Serviced + Dropped + Lost ==
// Planned), both lanes lose traffic through the dead node although only
// gold's phases declare the failure, the drain reaches the rejoined
// node, and a repeat run reproduces the ledger bit for bit.
func TestTenantFailRejoinLedger(t *testing.T) {
	sc := tenantFailScenario(4)
	a, lanes, err := run(sc)
	if err != nil {
		t.Fatal(err)
	}
	lost := 0
	for _, tr := range a.Tenants {
		if tr.Serviced+tr.Dropped+tr.Lost != tr.Planned {
			t.Errorf("tenant %s: serviced %d + dropped %d + lost %d != planned %d",
				tr.Name, tr.Serviced, tr.Dropped, tr.Lost, tr.Planned)
		}
		if tr.Lost == 0 {
			t.Errorf("tenant %s lost nothing: the failure did not bite its lane", tr.Name)
		}
		lost += tr.Lost
	}
	if a.Lost != lost {
		t.Errorf("Result.Lost = %d, tenants lost %d", a.Lost, lost)
	}
	if a.Tenants[1].Deferred == 0 {
		t.Errorf("bronze never deferred: %+v", a.Tenants[1])
	}
	if a.Mesh.CreditStalls == 0 {
		t.Error("no credit stalls: the failure found no queued sends to fail")
	}
	gold := lanes[0].phases
	if got := gold[2].Executed; got != gold[2].Planned {
		t.Errorf("drain after rejoin executed %d of %d", got, gold[2].Planned)
	}
	if gold[2].End <= gold[1].End {
		t.Error("drain phase did not advance simulated time")
	}
	b, blanes, err := run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest || a.SimTime != b.SimTime || !reflect.DeepEqual(a.Tenants, b.Tenants) {
		t.Fatalf("repeat run diverged:\n%+v\nvs\n%+v", a.Tenants, b.Tenants)
	}
	if a.Mesh != b.Mesh {
		t.Fatalf("repeat run's stats diverged:\n%+v\nvs\n%+v", a.Mesh, b.Mesh)
	}
	for i := range lanes {
		if !reflect.DeepEqual(lanes[i].phases, blanes[i].phases) {
			t.Fatalf("repeat run's tenant %d phases diverged:\n%+v\nvs\n%+v", i, lanes[i].phases, blanes[i].phases)
		}
	}
}

// TestTenantRunRepeatable re-runs one multi-tenant scenario twice
// in-process: per-tenant namespaces, arbiters, and buckets must leave no
// cross-run state.
func TestTenantRunRepeatable(t *testing.T) {
	sc := tenantScenario(4)
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest || a.SimTime != b.SimTime || !reflect.DeepEqual(a.Tenants, b.Tenants) {
		t.Fatalf("back-to-back tenant runs diverged:\n%+v\nvs\n%+v", a.Tenants, b.Tenants)
	}
	if a.Mesh != b.Mesh {
		t.Fatalf("back-to-back tenant runs' stats diverged:\n%+v\nvs\n%+v", a.Mesh, b.Mesh)
	}
}
