package workload

import (
	"fmt"
	"reflect"
	"testing"

	"twochains/internal/core"
	"twochains/internal/tcapp"
)

// runPair executes the same scenario twice — compiled dispatch and
// forced interpreter — and fails unless every observable is
// bit-identical: fabric digest, simulated finish time, injection count,
// and the per-node digest/error breakdown. The interpret loop is the
// reference implementation, so any divergence is a JIT bug by
// definition. The interpreter leg must also match the enginePins row
// named pin (golden_test.go), so the outcome is pinned by value and not
// only by the two engines agreeing.
func runPair(t *testing.T, pin string, sc Scenario) *Result {
	t.Helper()
	sc.Interpreter = false
	jit, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.Interpreter = true
	ref, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	enginePinFor(t, pin).verify(t, ref)
	if jit.Digest != ref.Digest {
		t.Errorf("digest: compiled %#x, interpreter %#x", jit.Digest, ref.Digest)
	}
	if jit.SimTime != ref.SimTime {
		t.Errorf("simulated time: compiled %d, interpreter %d",
			int64(jit.SimTime), int64(ref.SimTime))
	}
	if jit.Injections != ref.Injections {
		t.Errorf("injections: compiled %d, interpreter %d", jit.Injections, ref.Injections)
	}
	for i := range jit.PerNode {
		j, r := jit.PerNode[i], ref.PerNode[i]
		if j != r {
			t.Errorf("node %d: compiled %+v, interpreter %+v", i, j, r)
		}
	}
	if !reflect.DeepEqual(jit.Tenants, ref.Tenants) {
		t.Errorf("per-tenant results:\ncompiled    %+v\ninterpreter %+v", jit.Tenants, ref.Tenants)
	}
	// A pinned interpreter has no use for a translation: no node builds
	// one, at install or on delivery.
	if ref.Mesh.JITCompiles != 0 || ref.Mesh.Tier.Promotions != 0 || ref.Mesh.Tier.CompiledCalls != 0 {
		t.Errorf("interpreter leg compiled: %d translations, %+v", ref.Mesh.JITCompiles, ref.Mesh.Tier)
	}
	return jit
}

// TestInterpreterOptionWithTenants pins that Scenario.Interpreter reaches
// the node configuration whatever the lane layout: the one option
// builder applied to a mesh configuration sets the interpreter flag for
// a scenario with Tenants exactly as for one without — and that the run
// reads its pinned row with the option set or clear.
func TestInterpreterOptionWithTenants(t *testing.T) {
	for _, c := range []struct {
		pin string
		sc  Scenario
	}{{"alltoall4", DefaultScenario(AllToAll, 4)}, {"tenants4", tenantScenario(4)}} {
		sc := c.sc
		for _, interp := range []bool{false, true} {
			sc.Interpreter = interp
			res, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			enginePinFor(t, c.pin).verify(t, res)
			cfg := core.DefaultMeshConfig(sc.Nodes)
			for _, opt := range sc.systemOpts(256) {
				opt(&cfg)
			}
			if cfg.Node.Interpreter != interp {
				t.Errorf("%d tenants, Interpreter=%v: node interpreter flag = %v",
					len(sc.Tenants), interp, cfg.Node.Interpreter)
			}
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

// TestJITEquivalenceSweep replays every tcapp-registered element
// compiled-vs-interpreted across seeds and fabric backends. Timing stays
// on so the comparison covers simulated costs, not just return values.
//
// Subtest names are kept as the test floor lists them: "workers=N" dates
// from an engine-worker axis that no longer exists, so rows that differ
// only there run the same scenario twice.
//
// A jam runs interpreted until its mailbox slot has seen the same bytes
// several times over, so a short mixed run would compare the interpreter
// with itself. Each element therefore gets a run of its own, long enough
// to take every slot of the default mailbox geometry through tier 0 and
// into the compiled tier (192 deliveries per channel, six passes over the
// 32 slots), and the run fails unless the tier counters show calls in
// both.
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
					res := runPair(t, fmt.Sprintf("%s/%s/%x/%s", app, elem.Elem, d.seed, backend), sc)
					if tier := res.Mesh.Tier; tier.InterpCalls == 0 || tier.CompiledCalls == 0 {
						t.Errorf("%s: %d tier-0 calls, %d compiled calls; want both",
							elem.Elem, tier.InterpCalls, tier.CompiledCalls)
					}
				}
			})
		}
	}
	// The multi-tenant leg: two tenants with their own phase lists —
	// closed-loop and Poisson, three packages, one lane behind a deferring
	// token bucket. Per-tenant results (service and deferral counts, p99
	// latency, phase ends) must agree along with the digest.
	for _, name := range []string{"tenants/workers=1", "tenants/workers=4"} {
		t.Run(name, func(t *testing.T) {
			sc := twoPhaseTenantScenario()
			sc.Shards = 2
			sc.Tenants[0].Phases[1].Mix = KVStoreMix()
			sc.Tenants[1].Phases[1].Mix = jamMixFor(t, "histo")
			res := runPair(t, "tenants", sc)
			if res.Injections == 0 || res.Tenants[1].Deferred == 0 {
				t.Fatalf("tenant leg exercised nothing: %d injections, %+v", res.Injections, res.Tenants)
			}
		})
	}
}

// TestJITHotSwapUnderLoad pins translation invalidation: the hotspot
// pattern's built-in mid-phase RIED hot-swap replaces code while
// traffic is in flight, so stale compiled translations would either
// execute dead code or fault. Digests must stay bit-identical with the
// JIT on and off. (Subtest names: see TestJITEquivalenceSweep.)
func TestJITHotSwapUnderLoad(t *testing.T) {
	for _, name := range []string{"workers=1", "workers=4"} {
		t.Run(name, func(t *testing.T) {
			sc := DefaultScenario(Hotspot, 6)
			sc.Burst = 6
			sc.Rounds = 3
			res := runPair(t, "hotswap", sc)
			if !res.Swapped {
				t.Fatal("hotspot swap did not fire — the test exercised nothing")
			}
		})
	}
}
