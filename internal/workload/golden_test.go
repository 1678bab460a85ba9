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
		t.Run(string(g.pattern), func(t *testing.T) { g.check(t) })
	}
}

// check runs the golden scenario and compares every pinned observable.
func (g goldenRun) check(t *testing.T) {
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

// pin is one scenario and its pinned outcome: what goldenRun is to the
// three closed-loop patterns, for any scenario. err, when set, is the
// exact message Run must fail with instead.
type pin struct {
	name    string
	sc      Scenario
	digest  uint64
	simTime int64
	inj     int
	lost    int
	err     string
}

// run runs the pinned scenario, checks the outcome and returns the result
// (nil when Run failed).
func (p pin) run(t *testing.T) *Result {
	t.Helper()
	seed := p.sc.Seed
	res, err := Run(p.sc)
	if p.err != "" || err != nil {
		if err == nil || err.Error() != p.err {
			t.Errorf("seed %#x: error = %v, want %q", seed, err, p.err)
		}
		return res
	}
	if res.Digest != p.digest {
		t.Errorf("seed %#x: digest = %#x, want %#x", seed, res.Digest, p.digest)
	}
	if int64(res.SimTime) != p.simTime {
		t.Errorf("seed %#x: simulated time = %d, want %d", seed, int64(res.SimTime), p.simTime)
	}
	if res.Injections != p.inj {
		t.Errorf("seed %#x: injections = %d, want %d", seed, res.Injections, p.inj)
	}
	if res.Lost != p.lost {
		t.Errorf("seed %#x: lost = %d, want %d", seed, res.Lost, p.lost)
	}
	return res
}

// runPins runs each pin in a subtest named after it; consecutive pins of
// one name share the subtest.
func runPins(t *testing.T, pins []pin) {
	for len(pins) > 0 {
		n := 1
		for n < len(pins) && pins[n].name == pins[0].name {
			n++
		}
		group := pins[:n]
		pins = pins[n:]
		t.Run(group[0].name, func(t *testing.T) {
			for _, p := range group {
				p.run(t)
			}
		})
	}
}

// shardedScenario is the four-shard scenario the pins below run for a
// registered traffic shape: nine nodes, so the leaf domains are uneven
// and most traffic crosses the spine.
func shardedScenario(traffic string, seed uint64) Scenario {
	sc := DefaultScenario(Pattern(traffic), 9)
	sc.Timing = true
	sc.Burst = 4
	sc.Rounds = 2
	sc.Shards = 4
	sc.Seed = seed
	return sc
}

// meshScaleSeed4003 is the benchmark's mesh_scale shape at the seed whose
// digest once depended on the engine (0x95ca7487fec6acb0 on a windowed
// multi-engine one that is gone).
func meshScaleSeed4003() Scenario {
	sc := DefaultScenario(AllToAll, 16)
	sc.Shards = 4
	sc.Rounds = 16
	sc.Burst = 8
	sc.Seed = 4003
	return sc
}

func onShards(sc Scenario, shards int) Scenario {
	sc.Shards = shards
	return sc
}

// The pins below were captured at commit 2d40b5f. The same re-capture
// rule as goldenRuns applies.

// shardedPins: every registered traffic shape (the three test fixtures
// fail, each in its own way) on four fabric shards, two seeds.
var shardedPins = []pin{
	{"alltoall", shardedScenario("alltoall", 0x7c2c2021), 0xaa3e9dfb79aa9f10, 35736154, 576, 0, ""},
	{"alltoall", shardedScenario("alltoall", 0x51edba5e), 0x3f6ffd6a8afea580, 35602642, 576, 0, ""},
	{"fanout", shardedScenario("fanout", 0x7c2c2021), 0x685b724aefa0cec0, 32432178, 64, 0, ""},
	{"fanout", shardedScenario("fanout", 0x51edba5e), 0x1a03aeb8c7fa6840, 31729134, 64, 0, ""},
	{"hotspot", shardedScenario("hotspot", 0x7c2c2021), 0xb039af42dc02e960, 37122570, 512, 0, ""},
	{"hotspot", shardedScenario("hotspot", 0x51edba5e), 0x1cf222ad84571a80, 36080486, 512, 0, ""},
	{"ring", shardedScenario("ring", 0x7c2c2021), 0x2fc8bb26fd123fd0, 8469178, 72, 0, ""},
	{"ring", shardedScenario("ring", 0x51edba5e), 0x7930ef31b2c2a550, 7751642, 72, 0, ""},
	{"test-badswap", shardedScenario("test-badswap", 0x7c2c2021), 0, 0, 0, 0,
		`tcapp: no registered app "test-no-such-app" (have [histo kvstore tcbench])`},
	{"test-badswap", shardedScenario("test-badswap", 0x51edba5e), 0, 0, 0, 0,
		`tcapp: no registered app "test-no-such-app" (have [histo kvstore tcbench])`},
	{"test-oob", shardedScenario("test-oob", 0x7c2c2021), 0, 0, 0, 0,
		"workload: invalid scenario: Traffic: emit to node 9 of 9"},
	{"test-oob", shardedScenario("test-oob", 0x51edba5e), 0, 0, 0, 0,
		"workload: invalid scenario: Traffic: emit to node 9 of 9"},
	{"test-selfloop", shardedScenario("test-selfloop", 0x7c2c2021), 0, 0, 0, 0,
		"core: mesh channel 0->0 is a self-loop"},
	{"test-selfloop", shardedScenario("test-selfloop", 0x51edba5e), 0, 0, 0, 0,
		"core: mesh channel 0->0 is a self-loop"},
	{"seed4003", meshScaleSeed4003(), 0xcde4a6b1f968acb0, 1009721738, 30720, 0, ""},
}

// composedPins: the open-loop and multi-phase compositions on four shards.
var composedPins = []pin{
	{"kvstore", onShards(KVStoreScenario(8), 4), 0x58152e6ff9ed7a4d, 106349032, 448, 0, ""},
	{"multiphase", onShards(MultiPhaseScenario(8), 4), 0x73cedd7b7208942, 389109247, 1008, 0, ""},
}

// chaosPins: perturbed fabric, MMPP arrivals, a node failure and its
// rejoin (chaosScenario), loss ledger included.
var chaosPins = []pin{
	{"chaos", chaosScenario(0x7c2c2021), 0x468dcd4408a4e328, 80281736, 1604, 124, ""},
	{"chaos", chaosScenario(0x51edba5e), 0xa3e1a3b26ae954a8, 81070958, 1604, 124, ""},
}

// tenantGolden pins one tenant's slice of a multi-tenant golden run.
type tenantGolden struct {
	name      string
	serviced  int
	dropped   int
	deferred  int
	lost      int
	p99       int64
	phaseEnds []int64
}

// tenantGoldenRun pins one multi-tenant scenario: digest, simulated
// time, overlap window, and every tenant's service/admission/loss counts,
// p99 latency and phase end stamps.
type tenantGoldenRun struct {
	name    string
	sc      Scenario
	digest  uint64
	simTime int64
	overlap int64
	tenants []tenantGolden
}

// verify checks one finished run against the pins.
func (g tenantGoldenRun) verify(t *testing.T, res *Result) {
	t.Helper()
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
		got := tenantGolden{tr.Name, tr.Serviced, tr.Dropped, tr.Deferred, tr.Lost, int64(tr.P99Latency), ends}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("tenant %d = %+v, want %+v", i, got, want)
		}
	}
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

// shardedTwoPhaseTenants is the four-shard tenant scenario with a second
// phase on one lane (the per-lane phase barrier); shardedFailingTenants
// composes tenants with a node failure and rejoin on four shards.
func shardedTwoPhaseTenants(seed uint64) Scenario {
	sc := tenantScenario(9)
	sc.Shards = 4
	sc.Seed = seed
	sc.Tenants = []TenantSpec{
		{Name: "gold", Weight: 3, Phases: []Phase{
			{Name: "warm", Rounds: 1, Mix: []ElementMix{{Elem: "jam_iput", Weight: 1}}},
			{Name: "burst", Arrival: &Arrival{Kind: Poisson, RatePerSec: 150_000},
				Mix: []ElementMix{{Elem: "jam_sssum", Weight: 1}}},
		}},
		{Name: "bronze", Weight: 1},
	}
	return sc
}

func shardedFailingTenants(seed uint64) Scenario {
	sc := tenantFailScenario(6)
	sc.Shards = 4
	sc.Seed = seed
	return sc
}

// tenantGoldenRuns were captured before the run loops were unified,
// shardedTenantPins at commit 2d40b5f. The same re-capture rule applies
// to both.
var tenantGoldenRuns = []tenantGoldenRun{
	{"overload", OverloadScenario(8, 4), 0x6ac5c80cce9a3a00, 498400384, 338096016, []tenantGolden{
		{"gold", 2688, 0, 0, 0, 5361045, []int64{498400384}},
		{"bronze", 2688, 0, 0, 0, 210577205, []int64{498400384}},
	}},
	{"two-phase", twoPhaseTenantScenario(), 0x3a28b02d26d635b0, 142113853, 86757343, []tenantGolden{
		{"gold", 360, 0, 0, 0, 2533000, []int64{24938560, 142113853}},
		{"bronze", 360, 0, 169, 0, 2702845, []int64{96766332, 142113853}},
	}},
}

var shardedTenantPins = []tenantGoldenRun{
	{"two-phase/7c2c2021", shardedTwoPhaseTenants(0x7c2c2021), 0xfed485b184a9abb0, 279296148, 148242020, []tenantGolden{
		{"gold", 864, 0, 0, 0, 2385736, []int64{84897310, 279296148}},
		{"bronze", 576, 0, 0, 0, 2465443, []int64{279296148}},
	}},
	{"failing/7c2c2021", shardedFailingTenants(0x7c2c2021), 0xe1554929c892ee55, 674746559, 538033198, []tenantGolden{
		{"gold", 2565, 0, 0, 795, 291932856, []int64{71684676, 478544487, 674746559}},
		{"bronze", 2177, 0, 7188, 703, 580746528, []int64{674746559}},
	}},
	{"two-phase/51edba5e", shardedTwoPhaseTenants(0x51edba5e), 0xc2cf86fd4a84de90, 269990378, 147433400, []tenantGolden{
		{"gold", 864, 0, 0, 0, 2707239, []int64{108458523, 269990378}},
		{"bronze", 576, 0, 0, 0, 2782575, []int64{269990378}},
	}},
	{"failing/51edba5e", shardedFailingTenants(0x51edba5e), 0x8076a448dfd2b4fc, 674640788, 537854234, []tenantGolden{
		{"gold", 2564, 0, 0, 796, 293512468, []int64{71436984, 478461254, 674640788}},
		{"bronze", 2177, 0, 7099, 703, 579592675, []int64{674640788}},
	}},
}

// run runs the scenario in a subtest and checks it against the pins.
func (g tenantGoldenRun) run(t *testing.T) {
	t.Run(g.name, func(t *testing.T) {
		res, err := Run(g.sc)
		if err != nil {
			t.Fatal(err)
		}
		g.verify(t, res)
	})
}

// TestTenantGoldenRuns pins the multi-tenant driver the way
// TestGoldenDigests pins the single-tenant one.
func TestTenantGoldenRuns(t *testing.T) {
	for _, g := range tenantGoldenRuns {
		g.run(t)
	}
}
