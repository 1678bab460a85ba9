package workload

import (
	"reflect"
	"testing"

	"twochains/internal/mem"
)

// goldenRun pins one scenario's observable outcome: the fabric-wide
// digest, the exact simulated finish time, and the executed-injection
// count. The expectations were captured on the pre-PR-3 implementation
// (container/heap engine, per-message heap allocation everywhere), so
// they prove the allocation-free hot path is a pure host-side
// optimization: pooling, the 4-ary event heap, the decoded-jam cache,
// and the lazily mapped address spaces change neither message order nor
// simulated timing by a single tick.
//
// If an intentional model change moves these numbers, re-capture them in
// one dedicated commit — never alongside a performance change, or the
// equivalence evidence is lost.
type goldenRun struct {
	pattern Pattern
	nodes   int
	burst   int
	seed    uint64

	digest  uint64
	simTime int64
	inj     int
	swapped bool
	hotNode int
}

// Two seed/shape points per pattern: the benchmark shape (8 nodes, burst
// 8, default seed) and a smaller off-default shape on a different seed.
var goldenRuns = []goldenRun{
	{Fanout, 8, 8, 0x7c2c2021, 0xdc88806bb77ecbe0, 63237690, 112, false, -1},
	{AllToAll, 8, 8, 0x7c2c2021, 0x269bfefd7c3223c0, 64640105, 896, false, -1},
	{Hotspot, 8, 8, 0x7c2c2021, 0xfc58e0defda2e9b0, 70037311, 784, true, 0},
	{Fanout, 6, 4, 0x51edba5e, 0xf0015dbce33297d0, 22211178, 40, false, -1},
	{AllToAll, 6, 4, 0x51edba5e, 0x37a43f99ad3f3b80, 22825178, 240, false, -1},
	{Hotspot, 6, 4, 0x51edba5e, 0x441fa5f0335082e0, 22588284, 200, true, -2},
}

// TestGoldenDigests pins bit-identical digests and simulated times for
// fixed seeds across all three workload patterns.
func TestGoldenDigests(t *testing.T) {
	recycled := mem.BackingPoolStats().Recycled
	defer func() {
		// Every Run releases its nodes' memory for the next one, so from
		// the second scenario on the digests above were computed on
		// recycled, lazily zeroed backings. If none was, the goldens no
		// longer cover that path.
		if !t.Failed() && mem.BackingPoolStats().Recycled == recycled {
			t.Error("no golden scenario ran on a recycled address-space backing")
		}
	}()
	for _, g := range goldenRuns {
		g := g
		t.Run(string(g.pattern), func(t *testing.T) {
			sc := DefaultScenario(g.pattern, g.nodes)
			sc.Rounds = 2
			sc.Burst = g.burst
			sc.Seed = g.seed
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
			if res.Swapped != g.swapped {
				t.Errorf("swapped = %v, want %v", res.Swapped, g.swapped)
			}
			if g.hotNode != -2 && res.HotNode != g.hotNode {
				t.Errorf("hot node = %d, want %d", res.HotNode, g.hotNode)
			}
			var errs int
			for _, nr := range res.PerNode {
				errs += nr.Errors
			}
			if errs != 0 {
				t.Errorf("%d handler errors in a golden run", errs)
			}
		})
	}
}

// TestGoldenRepeatable re-runs one scenario twice in the same process:
// pooled frames, futures, and engine queues must leave no state behind
// that could couple two runs.
func TestGoldenRepeatable(t *testing.T) {
	sc := DefaultScenario(Hotspot, 8)
	sc.Rounds = 2
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest || a.SimTime != b.SimTime || a.Injections != b.Injections {
		t.Fatalf("back-to-back runs diverged: %#x/%d/%d vs %#x/%d/%d",
			a.Digest, a.SimTime, a.Injections, b.Digest, b.SimTime, b.Injections)
	}
}

// tenantGolden pins one tenant's slice of a multi-tenant golden run.
type tenantGolden struct {
	name      string
	serviced  int
	dropped   int
	deferred  int
	p99       int64
	phaseEnds []int64
}

// twoPhaseTenantScenario is the second tenant golden: two tenants whose
// lanes each run a closed-loop phase and a Poisson phase, one of them
// behind a deferring token bucket — phase barriers, admission retries
// and the fair queue all on one simulated clock.
func twoPhaseTenantScenario() Scenario {
	sc := DefaultScenario(AllToAll, 6)
	sc.Rounds = 2
	sc.Burst = 4
	sc.Seed = 0x7c2c2026
	iput := []ElementMix{{Elem: "jam_iput", Weight: 1}}
	sssum := []ElementMix{{Elem: "jam_sssum", Weight: 1}}
	sc.Tenants = []TenantSpec{
		{Name: "gold", Weight: 3, Phases: []Phase{
			{Name: "warm", Rounds: 1, Mix: iput},
			{Name: "open", Arrival: &Arrival{Kind: Poisson, RatePerSec: 200_000}, Mix: sssum},
		}},
		{Name: "bronze", Weight: 1,
			Admit: &AdmitSpec{RatePerSec: 400_000, Burst: 8, Defer: true},
			Phases: []Phase{
				{Name: "open", Arrival: &Arrival{Kind: Poisson, RatePerSec: 300_000}, Mix: iput},
				{Name: "drain", Rounds: 1, Mix: sssum},
			}},
	}
	return sc
}

// TestTenantGoldenRuns pins the multi-tenant driver the way
// TestGoldenDigests pins the single-tenant one: digest, simulated time,
// overlap window, and every tenant's service/admission counts, p99
// latency and phase end stamps, captured before the run loops were
// unified. The same re-capture rule applies.
func TestTenantGoldenRuns(t *testing.T) {
	for _, g := range []struct {
		name    string
		sc      Scenario
		digest  uint64
		simTime int64
		overlap int64
		tenants []tenantGolden
	}{
		{"overload", OverloadScenario(8, 4), 0x6ac5c80cce9a3a00, 498400384, 338096016, []tenantGolden{
			{"gold", 2688, 0, 0, 5361045, []int64{498400384}},
			{"bronze", 2688, 0, 0, 210577205, []int64{498400384}},
		}},
		{"two-phase", twoPhaseTenantScenario(), 0x3a28b02d26d635b0, 142113853, 86757343, []tenantGolden{
			{"gold", 360, 0, 0, 2533000, []int64{24938560, 142113853}},
			{"bronze", 360, 0, 169, 2702845, []int64{96766332, 142113853}},
		}},
	} {
		g := g
		t.Run(g.name, func(t *testing.T) {
			g.sc.Workers = 1
			res, err := Run(g.sc)
			if err != nil {
				t.Fatal(err)
			}
			if res.Digest != g.digest {
				t.Errorf("digest = %#x, want %#x", res.Digest, g.digest)
			}
			if int64(res.SimTime) != g.simTime {
				t.Errorf("simulated time = %d, want %d", int64(res.SimTime), g.simTime)
			}
			if int64(res.OverlapWindow) != g.overlap {
				t.Errorf("overlap window = %d, want %d", int64(res.OverlapWindow), g.overlap)
			}
			if len(res.Tenants) != len(g.tenants) {
				t.Fatalf("tenants reported: %d, want %d", len(res.Tenants), len(g.tenants))
			}
			for i, want := range g.tenants {
				tr := res.Tenants[i]
				var ends []int64
				for _, ph := range tr.Phases {
					ends = append(ends, int64(ph.End))
				}
				got := tenantGolden{tr.Name, tr.Serviced, tr.Dropped, tr.Deferred, int64(tr.P99Latency), ends}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("tenant %d = %+v, want %+v", i, got, want)
				}
			}
		})
	}
}
