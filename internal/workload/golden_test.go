package workload

import (
	"reflect"
	"testing"

	"twochains/internal/mem"
	"twochains/internal/sim"
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
// work pins the work counters of the run's stats snapshot; they were
// captured at commit c8455af, before the snapshot carried them.
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
	work    goldenWork
}

// goldenWork is the work a golden run did, by layer: engine events, VM
// instructions and body decodes, jam-cache binds, fabric puts and
// cache-model accesses.
type goldenWork struct {
	events, instrs, decodes, jamBinds, puts, cacheAccesses uint64
}

// Two seed/shape points per pattern: the benchmark shape (8 nodes, burst
// 8, default seed) and a smaller off-default shape on a different seed.
var goldenRuns = []goldenRun{
	{Fanout, 8, 8, 0x7c2c2021, 0xdc88806bb77ecbe0, 63237690, 112, false, -1,
		goldenWork{281, 12272, 10, 2, 28, 3616}},
	{AllToAll, 8, 8, 0x7c2c2021, 0x269bfefd7c3223c0, 64640105, 896, false, -1,
		goldenWork{2248, 98176, 16, 15, 224, 28912}},
	{Hotspot, 8, 8, 0x7c2c2021, 0xfc58e0defda2e9b0, 70037311, 784, true, 0,
		goldenWork{1967, 80921, 12, 27, 196, 23969}},
	{Fanout, 6, 4, 0x51edba5e, 0xf0015dbce33297d0, 22211178, 40, false, -1,
		goldenWork{111, 3432, 5, 2, 15, 1024}},
	{AllToAll, 6, 4, 0x51edba5e, 0x37a43f99ad3f3b80, 22825178, 240, false, -1,
		goldenWork{666, 22256, 11, 12, 90, 6656}},
	{Hotspot, 6, 4, 0x51edba5e, 0x441fa5f0335082e0, 22588284, 200, true, -2,
		goldenWork{543, 20488, 9, 17, 69, 6064}},
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
	st := res.Mesh
	if w := (goldenWork{st.Events, st.Instrs, st.Decodes, st.JamBinds, st.Puts, st.Cache.Accesses}); w != g.work {
		t.Errorf("work = %+v, want %+v", w, g.work)
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
	if a.Mesh != b.Mesh {
		t.Fatalf("back-to-back runs' stats diverged:\n%+v\n%+v", a.Mesh, b.Mesh)
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
// one name share the subtest. A 64-node pin is skipped under the race
// detector, which would take it from about a second to minutes; the
// plain tier-1 run checks it.
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
				if raceEnabled && p.sc.Nodes >= 64 {
					t.Skip("64-node pin skipped under -race")
				}
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

// mesh64 is the 64-node, 8-shard shape of the root package's
// BenchmarkMesh*64 benchmarks.
func mesh64(p Pattern) Scenario {
	sc := DefaultScenario(p, 64)
	sc.Rounds = 2
	sc.Shards = 8
	return sc
}

// meshChaos64 is BenchmarkMeshChaos64's shape: the 64-node exchange on a
// perturbed fabric, with node 5 failing in the second phase and
// rejoining in the third.
func meshChaos64() Scenario {
	sc := mesh64(AllToAll)
	sc.Chaos = &ChaosSpec{MinDelay: 20 * sim.Nanosecond, MaxDelay: 120 * sim.Nanosecond}
	sc.Phases = []Phase{
		{Name: "steady"},
		{Name: "failing", Fail: []Fail{{Node: 5, At: sim.Microsecond}}},
		{Name: "drain", Rejoin: []Rejoin{{Node: 5}}},
	}
	return sc
}

// The pins below were captured at commit 2d40b5f. The same re-capture
// rule as goldenRuns applies.

// shardedPins: every traffic shape in the table (three of the test
// fixtures fail, each in its own way) on four fabric shards, two seeds.
// The test-pair and test-silent rows were captured at commit aa1405d.
var shardedPins = []pin{
	{"alltoall", shardedScenario("alltoall", 0x7c2c2021), 0xaa3e9dfb79aa9f10, 35736154, 576, 0, ""},
	{"alltoall", shardedScenario("alltoall", 0x51edba5e), 0x3f6ffd6a8afea580, 35602642, 576, 0, ""},
	{"fanout", shardedScenario("fanout", 0x7c2c2021), 0x685b724aefa0cec0, 32432178, 64, 0, ""},
	{"fanout", shardedScenario("fanout", 0x51edba5e), 0x1a03aeb8c7fa6840, 31729134, 64, 0, ""},
	{"hotspot", shardedScenario("hotspot", 0x7c2c2021), 0xb039af42dc02e960, 37122570, 512, 0, ""},
	{"hotspot", shardedScenario("hotspot", 0x51edba5e), 0x1cf222ad84571a80, 36080486, 512, 0, ""},
	{"test-badswap", shardedScenario("test-badswap", 0x7c2c2021), 0, 0, 0, 0,
		`tcapp: no registered app "test-no-such-app" (have [histo kvstore tcbench])`},
	{"test-badswap", shardedScenario("test-badswap", 0x51edba5e), 0, 0, 0, 0,
		`tcapp: no registered app "test-no-such-app" (have [histo kvstore tcbench])`},
	{"test-oob", shardedScenario("test-oob", 0x7c2c2021), 0, 0, 0, 0,
		"workload: invalid scenario: Traffic: emit to node 9 of 9"},
	{"test-oob", shardedScenario("test-oob", 0x51edba5e), 0, 0, 0, 0,
		"workload: invalid scenario: Traffic: emit to node 9 of 9"},
	{"test-pair", shardedScenario("test-pair", 0x7c2c2021), 0xbe5a80f1d5907a20, 5025797, 16, 0, ""},
	{"test-pair", shardedScenario("test-pair", 0x51edba5e), 0x6ed455fc38d79360, 7173845, 16, 0, ""},
	{"test-selfloop", shardedScenario("test-selfloop", 0x7c2c2021), 0, 0, 0, 0,
		"core: mesh channel 0->0 is a self-loop"},
	{"test-selfloop", shardedScenario("test-selfloop", 0x51edba5e), 0, 0, 0, 0,
		"core: mesh channel 0->0 is a self-loop"},
	{"test-silent", shardedScenario("test-silent", 0x7c2c2021), 0, 0, 0, 0, ""},
	{"test-silent", shardedScenario("test-silent", 0x51edba5e), 0, 0, 0, 0, ""},
	{"seed4003", meshScaleSeed4003(), 0xcde4a6b1f968acb0, 1009721738, 30720, 0, ""},
	// The root package's 64-node benchmark shapes, captured at commit
	// ba66a50.
	{"alltoall64", mesh64(AllToAll), 0x5efb8e7dfba38000, 552597244, 64512, 0, ""},
	{"fanout64", mesh64(Fanout), 0xa567b7cb095450e0, 536012447, 1008, 0, ""},
	{"hotspot64", mesh64(Hotspot), 0xf9805854a37cc1d0, 1049103581, 63504, 0, ""},
}

// composedPins: the open-loop and multi-phase compositions on four shards
// and unsharded (the root package's BenchmarkKVStoreOpenLoop and
// BenchmarkMultiPhaseMix shapes), and BenchmarkMeshChaos64's shape with
// its loss ledger. The unsharded and 64-node rows were captured at commit
// ba66a50.
var composedPins = []pin{
	{"kvstore", onShards(KVStoreScenario(8), 4), 0x58152e6ff9ed7a4d, 106349032, 448, 0, ""},
	{"kvstore", KVStoreScenario(8), 0xc5ee4c9cd654ea29, 105656032, 448, 0, ""},
	{"multiphase", onShards(MultiPhaseScenario(8), 4), 0x73cedd7b7208942, 389109247, 1008, 0, ""},
	{"multiphase", MultiPhaseScenario(8), 0xe03f34ad91fde904, 385982247, 1008, 0, ""},
	{"chaos64", meshChaos64(), 0xd2869015c76cbe60, 1675786073, 191528, 2008, ""},
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
func (g tenantGoldenRun) verify(t *testing.T, res *Result, lanes []*lane) {
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
	verifyTenants(t, res, lanes, g.tenants)
}

// verifyTenants checks every tenant's slice of a finished run; lane i
// holds tenant i's phases.
func verifyTenants(t *testing.T, res *Result, lanes []*lane, want []tenantGolden) {
	t.Helper()
	if len(res.Tenants) != len(want) {
		t.Fatalf("tenants reported: %d, want %d", len(res.Tenants), len(want))
	}
	for i, w := range want {
		tr := res.Tenants[i]
		var ends []int64
		for _, ph := range lanes[i].phases {
			ends = append(ends, int64(ph.End))
		}
		got := tenantGolden{tr.Name, tr.Serviced, tr.Dropped, tr.Deferred, tr.Lost, int64(tr.P99Latency), ends}
		if !reflect.DeepEqual(got, w) {
			t.Errorf("tenant %d = %+v, want %+v", i, got, w)
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
			{Name: "warm", Rounds: 1, Arrival: &Arrival{Kind: Poisson, RatePerSec: 150_000},
				Mix: []ElementMix{{Elem: "jam_iput", Weight: 1}}},
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
		res, lanes, err := run(g.sc)
		if err != nil {
			t.Fatal(err)
		}
		g.verify(t, res, lanes)
	})
}

// TestTenantGoldenRuns pins the multi-tenant driver the way
// TestGoldenDigests pins the single-tenant one.
func TestTenantGoldenRuns(t *testing.T) {
	for _, g := range tenantGoldenRuns {
		g.run(t)
	}
}

// enginePin pins a scenario on everything two VM engines were once
// compared on, run against run: digest, simulated time, executed count,
// every node's row and every tenant's. The scenarios are built by the
// tests in jit_equivalence_test.go, which look their row up by name. The
// rows are the reference interpreter's, captured at commit 9dbd9d9 while
// the compiled engine still ran beside it and agreed on every one. The
// same re-capture rule as goldenRuns applies.
type enginePin struct {
	name    string
	digest  uint64
	simTime int64
	inj     int
	nodes   []NodeResult
	tenants []tenantGolden
}

// verify checks one finished run against the pin.
func (p enginePin) verify(t *testing.T, res *Result, lanes []*lane) {
	t.Helper()
	if res.Digest != p.digest {
		t.Errorf("%s: digest = %#x, want %#x", p.name, res.Digest, p.digest)
	}
	if int64(res.SimTime) != p.simTime {
		t.Errorf("%s: simulated time = %d, want %d", p.name, int64(res.SimTime), p.simTime)
	}
	if res.Injections != p.inj {
		t.Errorf("%s: injections = %d, want %d", p.name, res.Injections, p.inj)
	}
	if !reflect.DeepEqual(res.PerNode, p.nodes) {
		t.Errorf("%s: per-node rows\n got %+v\nwant %+v", p.name, res.PerNode, p.nodes)
	}
	verifyTenants(t, res, lanes, p.tenants)
}

// enginePinFor returns the row named name.
func enginePinFor(t *testing.T, name string) enginePin {
	t.Helper()
	for _, p := range enginePins {
		if p.name == name {
			return p
		}
	}
	t.Fatalf("no enginePins row named %q", name)
	return enginePin{}
}

// enginePins: every jam element of every registered app alone on a
// 4-node fanout (192 deliveries a channel, six passes over the 32 mailbox
// slots), named app/element/seed/backend; the two-tenant three-package
// composition; the hotspot with its mid-run RIED swap; and the two small
// shapes TestInterpreterOptionWithTenants runs. NodeResult rows read
// {Sent, Executed, Errors, Digest}.
var enginePins = []enginePin{
	{"histo/jam_hist_add/7c2c2021/simnet", 0xe3f37ec2ba5c6080, 1232105115, 576,
		[]NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0xa1512a40e8c97580}, {192, 192, 0, 0xa1512a40e8c97580}, {192, 192, 0, 0xa1512a40e8c97580}}, nil},
	{"histo/jam_hist_sum/7c2c2021/simnet", 0xffdda451f0e3880, 132034402, 576,
		[]NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}}, nil},
	{"histo/jam_hist_add/7c2c2021/ideal", 0xe3f37ec2ba5c6080, 1230895116, 576,
		[]NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0xa1512a40e8c97580}, {192, 192, 0, 0xa1512a40e8c97580}, {192, 192, 0, 0xa1512a40e8c97580}}, nil},
	{"histo/jam_hist_sum/7c2c2021/ideal", 0xffdda451f0e3880, 109005085, 576,
		[]NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}}, nil},
	{"histo/jam_hist_add/51edba5e/simnet", 0xe3f37ec2ba5c6080, 1232105115, 576,
		[]NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0xa1512a40e8c97580}, {192, 192, 0, 0xa1512a40e8c97580}, {192, 192, 0, 0xa1512a40e8c97580}}, nil},
	{"histo/jam_hist_sum/51edba5e/simnet", 0xffdda451f0e3880, 132034402, 576,
		[]NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}}, nil},
	{"histo/jam_hist_add/51edba5e/ideal", 0xe3f37ec2ba5c6080, 1230895116, 576,
		[]NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0xa1512a40e8c97580}, {192, 192, 0, 0xa1512a40e8c97580}, {192, 192, 0, 0xa1512a40e8c97580}}, nil},
	{"histo/jam_hist_sum/51edba5e/ideal", 0xffdda451f0e3880, 109005085, 576,
		[]NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}}, nil},
	{"kvstore/jam_kv_get/7c2c2021/simnet", 0xffdda451f0e3880, 137679482, 576,
		[]NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}}, nil},
	{"kvstore/jam_kv_put/7c2c2021/simnet", 0xb2e0dd4cb7968146, 281304250, 576,
		[]NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0x1399863f2b05848c}, {192, 192, 0, 0x2fe094702e4504bf}, {192, 192, 0, 0x6f66c29d5e4bf7fb}}, nil},
	{"kvstore/jam_kv_scan/7c2c2021/simnet", 0xffdda451f0e3880, 137599330, 576,
		[]NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}}, nil},
	{"kvstore/jam_kv_get/7c2c2021/ideal", 0xffdda451f0e3880, 113626133, 576,
		[]NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}}, nil},
	{"kvstore/jam_kv_put/7c2c2021/ideal", 0xb2e0dd4cb7968146, 252130933, 576,
		[]NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0x1399863f2b05848c}, {192, 192, 0, 0x2fe094702e4504bf}, {192, 192, 0, 0x6f66c29d5e4bf7fb}}, nil},
	{"kvstore/jam_kv_scan/7c2c2021/ideal", 0xffdda451f0e3880, 113545981, 576,
		[]NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}}, nil},
	{"kvstore/jam_kv_get/51edba5e/simnet", 0xffdda451f0e3880, 137764482, 576,
		[]NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}}, nil},
	{"kvstore/jam_kv_put/51edba5e/simnet", 0x48b85ea49c61a5cf, 281474250, 576,
		[]NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0x49dc3c5d23be3ea0}, {192, 192, 0, 0x4b947e0f77b65328}, {192, 192, 0, 0xb347a43800ed1407}}, nil},
	{"kvstore/jam_kv_scan/51edba5e/simnet", 0xffdda451f0e3880, 137854330, 576,
		[]NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}}, nil},
	{"kvstore/jam_kv_get/51edba5e/ideal", 0xffdda451f0e3880, 113711133, 576,
		[]NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}}, nil},
	{"kvstore/jam_kv_put/51edba5e/ideal", 0x48b85ea49c61a5cf, 252300933, 576,
		[]NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0x49dc3c5d23be3ea0}, {192, 192, 0, 0x4b947e0f77b65328}, {192, 192, 0, 0xb347a43800ed1407}}, nil},
	{"kvstore/jam_kv_scan/51edba5e/ideal", 0xffdda451f0e3880, 113800981, 576,
		[]NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}}, nil},
	{"tcbench/jam_hello/7c2c2021/simnet", 0xffdda451f0e3880, 123851629, 576,
		[]NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}}, nil},
	{"tcbench/jam_iput/7c2c2021/simnet", 0xc6489fe0fec33880, 301856306, 576,
		[]NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0x2b23f304ddfebd80}, {192, 192, 0, 0x77e087a25ef1bd80}, {192, 192, 0, 0x23442539c1d2bd80}}, nil},
	{"tcbench/jam_sssum/7c2c2021/simnet", 0x6a311cf9a06ca480, 128624402, 576,
		[]NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0x78bb09a88acee180}, {192, 192, 0, 0x78bb09a88acee180}, {192, 192, 0, 0x78bb09a88acee180}}, nil},
	{"tcbench/jam_hello/7c2c2021/ideal", 0xffdda451f0e3880, 103894312, 576,
		[]NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}}, nil},
	{"tcbench/jam_iput/7c2c2021/ideal", 0xc6489fe0fec33880, 264490973, 576,
		[]NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0x2b23f304ddfebd80}, {192, 192, 0, 0x77e087a25ef1bd80}, {192, 192, 0, 0x23442539c1d2bd80}}, nil},
	{"tcbench/jam_sssum/7c2c2021/ideal", 0x6a311cf9a06ca480, 107643053, 576,
		[]NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0x78bb09a88acee180}, {192, 192, 0, 0x78bb09a88acee180}, {192, 192, 0, 0x78bb09a88acee180}}, nil},
	{"tcbench/jam_hello/51edba5e/simnet", 0xffdda451f0e3880, 123850860, 576,
		[]NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}}, nil},
	{"tcbench/jam_iput/51edba5e/simnet", 0x3347b1c06b0c3880, 301819768, 576,
		[]NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0xbf5e41aa0bcebd80}, {192, 192, 0, 0x301bcdacca5abd80}, {192, 192, 0, 0x43cda26994e2bd80}}, nil},
	{"tcbench/jam_sssum/51edba5e/simnet", 0x6a311cf9a06ca480, 128624402, 576,
		[]NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0x78bb09a88acee180}, {192, 192, 0, 0x78bb09a88acee180}, {192, 192, 0, 0x78bb09a88acee180}}, nil},
	{"tcbench/jam_hello/51edba5e/ideal", 0xffdda451f0e3880, 103893543, 576,
		[]NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}}, nil},
	{"tcbench/jam_iput/51edba5e/ideal", 0x3347b1c06b0c3880, 264454435, 576,
		[]NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0xbf5e41aa0bcebd80}, {192, 192, 0, 0x301bcdacca5abd80}, {192, 192, 0, 0x43cda26994e2bd80}}, nil},
	{"tcbench/jam_sssum/51edba5e/ideal", 0x6a311cf9a06ca480, 107643053, 576,
		[]NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0x78bb09a88acee180}, {192, 192, 0, 0x78bb09a88acee180}, {192, 192, 0, 0x78bb09a88acee180}}, nil},
	{"tenants", 0x6e3f372a9f01f2e, 238010240, 720,
		[]NodeResult{{120, 120, 0, 0xef25b6a73de51cfb}, {120, 120, 0, 0xc59fde65b5f764b4}, {120, 120, 0, 0xa92035b39d012ec6}, {120, 120, 0, 0x31c64d7c8245e6be}, {120, 120, 0, 0xd0a060cd989e3e80}, {120, 120, 0, 0xa6977a67fe2e497b}},
		[]tenantGolden{
			{"gold", 360, 0, 0, 0, 2533000, []int64{24938560, 238010240}},
			{"bronze", 360, 0, 169, 0, 2702845, []int64{96766332, 238010240}},
		}},
	{"hotswap", 0xfc9a20306c800da4, 60651130, 450,
		[]NodeResult{{30, 30, 0, 0x76ff756305700e2c}, {42, 42, 0, 0x39d4cf55e8ecd484}, {342, 342, 0, 0xd85b231f9f9cdd4c}, {6, 6, 0, 0x73579d3593570a7c}, {12, 12, 0, 0x9f3edfd21b8f8ab8}, {18, 18, 0, 0x60d43b502f9fb874}}, nil},
	{"alltoall4", 0x1acf2f18754dd310, 44236690, 288,
		[]NodeResult{{72, 72, 0, 0xfd03d2c1266f94d0}, {72, 72, 0, 0xa171c7c9e2db55a0}, {72, 72, 0, 0x94a2c21209f5680}, {72, 72, 0, 0x730f686c4b639220}}, nil},
	{"tenants4", 0x8f9865e927d8d80, 76486394, 192,
		[]NodeResult{{48, 48, 0, 0x4a69dcda32a2e360}, {48, 48, 0, 0xe0cd661f091ae360}, {48, 48, 0, 0xb174c3ca59b5e360}, {48, 48, 0, 0x2c4d7f9afd09e360}},
		[]tenantGolden{
			{"gold", 96, 0, 0, 0, 2430937, []int64{76486394}},
			{"bronze", 96, 0, 0, 0, 2088252, []int64{76486394}},
		}},
}
