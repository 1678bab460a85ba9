package workload

import (
	"fmt"
	"testing"

	"twochains/internal/core"
	"twochains/internal/tcapp"
)

// The tests in this file keep the names they had when each scenario was
// run on a compiled VM engine and on the interpreter and the two compared;
// they now check the same scenarios against the rows the interpreter leg
// produced then (enginePins, golden_test.go).

// runPinned runs sc and checks the outcome against the enginePins row
// named pin.
func runPinned(t *testing.T, pin string, sc Scenario) *Result {
	t.Helper()
	res, lanes, err := run(sc)
	if err != nil {
		t.Fatal(err)
	}
	enginePinFor(t, pin).verify(t, res, lanes)
	return res
}

// TestInterpreterOptionWithTenants pins that Scenario.Interpreter is
// inert whatever the lane layout: a scenario with Tenants and one without
// each read their pinned row with the field set or clear.
func TestInterpreterOptionWithTenants(t *testing.T) {
	for _, c := range []struct {
		pin string
		sc  Scenario
	}{{"alltoall4", DefaultScenario(AllToAll, 4)}, {"tenants4", tenantScenario(4)}} {
		for _, interp := range []bool{false, true} {
			c.sc.Interpreter = interp
			runPinned(t, c.pin, c.sc)
		}
	}
}

// jamMixFor builds a mix naming every injectable (jam) element of a
// registered app, so the sweep exercises the whole registry, not a
// hand-picked subset.
func jamMixFor(t *testing.T, app string) []ElementMix {
	t.Helper()
	pkg, err := tcapp.Build(app)
	if err != nil {
		t.Fatal(err)
	}
	var mix []ElementMix
	for _, e := range pkg.Elements {
		if e.Kind == core.ElemJam {
			mix = append(mix, ElementMix{Pkg: app, Elem: e.Name, Weight: 1})
		}
	}
	if len(mix) == 0 {
		t.Fatalf("app %s has no jam elements", app)
	}
	return mix
}

// TestJITEquivalenceSweep pins every tcapp-registered jam element across
// seeds and fabric backends, timing on so the rows cover simulated costs
// and not only return values. Each element gets a run of its own: 192
// deliveries per channel, six passes over the 32 slots of the default
// mailbox geometry, so every slot is re-delivered the same bytes.
//
// Subtest names are kept as the test floor lists them: "workers=N" dates
// from an engine-worker axis that no longer exists, so rows that differ
// only there run the same scenario twice.
func TestJITEquivalenceSweep(t *testing.T) {
	dims := []struct {
		name    string
		seed    uint64
		backend string
	}{
		{"seed=7c2c2021/workers=1/backend=simnet", 0x7c2c2021, ""},
		{"seed=7c2c2021/workers=4/backend=simnet", 0x7c2c2021, ""},
		{"seed=7c2c2021/workers=1/backend=ideal", 0x7c2c2021, "ideal"},
		{"seed=51edba5e/workers=1/backend=simnet", 0x51edba5e, ""},
		{"seed=51edba5e/workers=4/backend=ideal", 0x51edba5e, "ideal"},
	}
	for _, app := range tcapp.Names() {
		mix := jamMixFor(t, app)
		for _, d := range dims {
			d := d
			t.Run(app+"/"+d.name, func(t *testing.T) {
				for _, elem := range mix {
					sc := DefaultScenario(Fanout, 4)
					sc.Burst = 8
					sc.Rounds = 24
					sc.Seed = d.seed
					sc.Backend = d.backend
					sc.Mix = []ElementMix{elem}
					backend := d.backend
					if backend == "" {
						backend = "simnet"
					}
					res := runPinned(t, fmt.Sprintf("%s/%s/%x/%s", app, elem.Elem, d.seed, backend), sc)
					if st := res.Mesh; st.SlotHits == 0 || st.SlotMisses == 0 {
						t.Errorf("%s: %d slot hits, %d misses; want both", elem.Elem, st.SlotHits, st.SlotMisses)
					}
				}
			})
		}
	}
	// The multi-tenant leg: two tenants with their own phase lists —
	// closed-loop and Poisson, three packages, one lane behind a deferring
	// token bucket. The row pins per-tenant results (service and deferral
	// counts, p99 latency, phase ends) along with the digest.
	for _, name := range []string{"tenants/workers=1", "tenants/workers=4"} {
		t.Run(name, func(t *testing.T) {
			sc := twoPhaseTenantScenario()
			sc.Shards = 2
			sc.Tenants[0].Phases[1].Mix = KVStoreMix()
			sc.Tenants[1].Phases[1].Mix = jamMixFor(t, "histo")
			res := runPinned(t, "tenants", sc)
			if res.Injections == 0 || res.Tenants[1].Deferred == 0 {
				t.Fatalf("tenant leg exercised nothing: %d injections, %+v", res.Injections, res.Tenants)
			}
		})
	}
}

// TestJITHotSwapUnderLoad pins jam-slot invalidation: the hotspot
// pattern's built-in mid-phase RIED hot-swap replaces code while traffic
// is in flight, so a stale decode would either execute dead code or
// fault. (Subtest names: see TestJITEquivalenceSweep.)
func TestJITHotSwapUnderLoad(t *testing.T) {
	for _, name := range []string{"workers=1", "workers=4"} {
		t.Run(name, func(t *testing.T) {
			sc := DefaultScenario(Hotspot, 6)
			sc.Burst = 6
			sc.Rounds = 3
			res := runPinned(t, "hotswap", sc)
			if !res.Swapped {
				t.Fatal("hotspot swap did not fire — the test exercised nothing")
			}
		})
	}
}
