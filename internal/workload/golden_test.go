package workload

import (
	"fmt"
	"reflect"
	"testing"

	"twochains/internal/mem"
	"twochains/internal/sim"
)

// The tables in this package's tests pin what a scenario does, bit for
// bit: every row is a scenario and its outcome, meshPin for a
// single-tenant run and tenantPin for a multi-tenant one. Simulation is
// deterministic, so a row that moves is a model change, not noise. Rows
// an intentional model change moves are re-captured in one dedicated
// commit, never alongside a performance change, or the equivalence
// evidence is lost. Each table says where its rows were captured.

// meshPin is one scenario and its pinned outcome: the fabric-wide
// digest, the exact simulated finish time, the executed-injection count
// and the loss ledger. err, when set, is the exact message Run must fail
// with instead, and nothing else is checked. work, swap and nodes are
// checked when set.
type meshPin struct {
	name    string
	sc      Scenario
	err     string
	digest  uint64
	simTime int64
	inj     int
	lost    int
	work    *workCounts
	swap    *swapPin
	nodes   []NodeResult
}

// workCounts is the work a run did, by layer: engine events, VM
// instructions and body decodes, jam-cache binds, fabric puts and
// cache-model accesses.
type workCounts struct {
	events, instrs, decodes, jamBinds, puts, cacheAccesses uint64
}

// swapPin is whether the hotspot swap fired and the node it made hot
// (-1: none; -2: not pinned).
type swapPin struct {
	swapped bool
	hotNode int
}

// label names the row in a failure: its seed, and its element when it
// runs one alone.
func (p meshPin) label() string {
	s := fmt.Sprintf("seed %#x", p.sc.Seed)
	if len(p.sc.Mix) == 1 {
		s += " " + p.sc.Mix[0].Elem
	}
	return s
}

// check runs the pinned scenario, compares every field the row sets and
// returns the result (nil when Run failed). A run that does not fail
// must also have no handler errors.
func (p meshPin) check(t *testing.T) *Result {
	t.Helper()
	res, err := Run(p.sc)
	row := p.label()
	if p.err != "" || err != nil {
		if err == nil || err.Error() != p.err {
			t.Errorf("%s: error = %v, want %q", row, err, p.err)
		}
		return res
	}
	if res.Digest != p.digest {
		t.Errorf("%s: digest = %#x, want %#x", row, res.Digest, p.digest)
	}
	if int64(res.SimTime) != p.simTime {
		t.Errorf("%s: simulated time = %d, want %d", row, int64(res.SimTime), p.simTime)
	}
	if res.Injections != p.inj {
		t.Errorf("%s: injections = %d, want %d", row, res.Injections, p.inj)
	}
	if res.Lost != p.lost {
		t.Errorf("%s: lost = %d, want %d", row, res.Lost, p.lost)
	}
	if p.work != nil {
		st := res.Mesh
		if w := (workCounts{st.Events, st.Instrs, st.Decodes, st.JamBinds, st.Puts, st.Cache.Accesses}); w != *p.work {
			t.Errorf("%s: work = %+v, want %+v", row, w, *p.work)
		}
	}
	if p.swap != nil {
		if res.Swapped != p.swap.swapped {
			t.Errorf("%s: swapped = %v, want %v", row, res.Swapped, p.swap.swapped)
		}
		if p.swap.hotNode != -2 && res.HotNode != p.swap.hotNode {
			t.Errorf("%s: hot node = %d, want %d", row, res.HotNode, p.swap.hotNode)
		}
	}
	if p.nodes != nil && !reflect.DeepEqual(res.PerNode, p.nodes) {
		t.Errorf("%s: per-node rows\n got %+v\nwant %+v", row, res.PerNode, p.nodes)
	}
	var errs int
	for _, nr := range res.PerNode {
		errs += nr.Errors
	}
	if errs != 0 {
		t.Errorf("%s: %d handler errors", row, errs)
	}
	return res
}

// runPins checks each pin in a subtest named after it; consecutive pins
// of one name share the subtest. then, when set, checks more of each
// successful run. A 64-node pin is skipped under the race detector,
// which would take it from about a second to minutes; the plain tier-1
// run checks it.
func runPins(t *testing.T, pins []meshPin, then func(*testing.T, meshPin, *Result)) {
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
				if res := p.check(t); res != nil && p.err == "" && then != nil {
					then(t, p, res)
				}
			}
		})
	}
}

// tenantPin is one multi-tenant scenario and its pinned outcome: digest,
// simulated time and every tenant's row. inj, overlap (the window in
// which every tenant was active) and nodes are checked when set.
type tenantPin struct {
	name    string
	sc      Scenario
	digest  uint64
	simTime int64
	inj     int
	overlap int64
	nodes   []NodeResult
	tenants []tenantRow
}

// tenantRow is one tenant's slice of a run: service, admission and loss
// counts, p99 latency and the end stamp of each of its phases.
type tenantRow struct {
	name      string
	serviced  int
	dropped   int
	deferred  int
	lost      int
	p99       int64
	phaseEnds []int64
}

// check runs the pinned scenario, compares every field the row sets and
// returns the result.
func (p tenantPin) check(t *testing.T) *Result {
	t.Helper()
	res, lanes, err := run(p.sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest != p.digest {
		t.Errorf("digest = %#x, want %#x", res.Digest, p.digest)
	}
	if int64(res.SimTime) != p.simTime {
		t.Errorf("simulated time = %d, want %d", int64(res.SimTime), p.simTime)
	}
	if p.inj != 0 && res.Injections != p.inj {
		t.Errorf("injections = %d, want %d", res.Injections, p.inj)
	}
	if p.overlap != 0 && int64(res.OverlapWindow) != p.overlap {
		t.Errorf("overlap window = %d, want %d", int64(res.OverlapWindow), p.overlap)
	}
	if p.nodes != nil && !reflect.DeepEqual(res.PerNode, p.nodes) {
		t.Errorf("per-node rows\n got %+v\nwant %+v", res.PerNode, p.nodes)
	}
	if len(res.Tenants) != len(p.tenants) {
		t.Fatalf("tenants reported: %d, want %d", len(res.Tenants), len(p.tenants))
	}
	// Lane i holds tenant i's phases.
	for i, w := range p.tenants {
		tr := res.Tenants[i]
		var ends []int64
		for _, ph := range lanes[i].phases {
			ends = append(ends, int64(ph.End))
		}
		got := tenantRow{tr.Name, tr.Serviced, tr.Dropped, tr.Deferred, tr.Lost, int64(tr.P99Latency), ends}
		if !reflect.DeepEqual(got, w) {
			t.Errorf("tenant %d = %+v, want %+v", i, got, w)
		}
	}
	return res
}

// goldenScenario is a closed-loop pattern run for two rounds.
func goldenScenario(p Pattern, nodes, burst int, seed uint64) Scenario {
	sc := DefaultScenario(p, nodes)
	sc.Rounds = 2
	sc.Burst = burst
	sc.Seed = seed
	return sc
}

// goldenPins: two seed/shape points per pattern, the benchmark shape (8
// nodes, burst 8, default seed) and a smaller off-default shape on a
// different seed. The outcomes were captured on the container/heap
// engine with per-message heap allocation everywhere, so they prove the
// allocation-free hot path (pooling, the 4-ary event heap, the
// decoded-jam cache, the lazily mapped address spaces) changes neither
// message order nor simulated timing by a single tick. The work counters
// were captured at commit c8455af.
var goldenPins = []meshPin{
	{name: "fanout", sc: goldenScenario(Fanout, 8, 8, 0x7c2c2021), digest: 0xdc88806bb77ecbe0, simTime: 63237690, inj: 112,
		swap: &swapPin{false, -1}, work: &workCounts{281, 12272, 10, 2, 28, 3616}},
	{name: "alltoall", sc: goldenScenario(AllToAll, 8, 8, 0x7c2c2021), digest: 0x269bfefd7c3223c0, simTime: 64640105, inj: 896,
		swap: &swapPin{false, -1}, work: &workCounts{2248, 98176, 16, 15, 224, 28912}},
	{name: "hotspot", sc: goldenScenario(Hotspot, 8, 8, 0x7c2c2021), digest: 0xfc58e0defda2e9b0, simTime: 70037311, inj: 784,
		swap: &swapPin{true, 0}, work: &workCounts{1967, 80921, 12, 27, 196, 23969}},
	{name: "fanout", sc: goldenScenario(Fanout, 6, 4, 0x51edba5e), digest: 0xf0015dbce33297d0, simTime: 22211178, inj: 40,
		swap: &swapPin{false, -1}, work: &workCounts{111, 3432, 5, 2, 15, 1024}},
	{name: "alltoall", sc: goldenScenario(AllToAll, 6, 4, 0x51edba5e), digest: 0x37a43f99ad3f3b80, simTime: 22825178, inj: 240,
		swap: &swapPin{false, -1}, work: &workCounts{666, 22256, 11, 12, 90, 6656}},
	{name: "hotspot", sc: goldenScenario(Hotspot, 6, 4, 0x51edba5e), digest: 0x441fa5f0335082e0, simTime: 22588284, inj: 200,
		swap: &swapPin{true, -2}, work: &workCounts{543, 20488, 9, 17, 69, 6064}},
}

// checkGoldens checks each golden row in a subtest of its own.
func checkGoldens(t *testing.T) {
	for _, p := range goldenPins {
		p := p
		t.Run(p.name, func(t *testing.T) { p.check(t) })
	}
}

// TestGoldenDigests pins bit-identical digests, simulated times and work
// for fixed seeds across all three workload patterns.
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
	checkGoldens(t)
}

// TestGoldenOnRecycledArrays runs the golden table a second time in the
// process: by now every scenario of it draws address-space backings and
// cache-model tag arrays that another run dirtied.
func TestGoldenOnRecycledArrays(t *testing.T) {
	checkGoldens(t)
}

// TestGoldenRepeatable re-runs one scenario twice in the same process:
// completion records, futures, and engine queues must leave no state behind
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

// shardedScenario is the four-shard scenario the pins below run for a
// registered traffic shape: nine nodes, so the leaf domains are uneven
// and most traffic crosses the spine.
func shardedScenario(traffic string, seed uint64) Scenario {
	sc := DefaultScenario(Pattern(traffic), 9)
	sc.Burst = 4
	sc.Rounds = 2
	sc.Shards = 4
	sc.Seed = seed
	return sc
}

// meshScaleSeed4003 is the benchmark's mesh_scale shape at seed 4003.
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

// shardedPins: every traffic shape in the table (three of the test
// fixtures fail, each in its own way) on four fabric shards, two seeds;
// the benchmark's mesh_scale shape at seed 4003; and the root package's
// 64-node mesh shapes. Captured at commit 2d40b5f; the test-pair and
// test-silent rows at aa1405d, the 64-node rows at ba66a50.
var shardedPins = []meshPin{
	{name: "alltoall", sc: shardedScenario("alltoall", 0x7c2c2021), digest: 0xaa3e9dfb79aa9f10, simTime: 35736154, inj: 576},
	{name: "alltoall", sc: shardedScenario("alltoall", 0x51edba5e), digest: 0x3f6ffd6a8afea580, simTime: 35602642, inj: 576},
	{name: "fanout", sc: shardedScenario("fanout", 0x7c2c2021), digest: 0x685b724aefa0cec0, simTime: 32432178, inj: 64},
	{name: "fanout", sc: shardedScenario("fanout", 0x51edba5e), digest: 0x1a03aeb8c7fa6840, simTime: 31729134, inj: 64},
	{name: "hotspot", sc: shardedScenario("hotspot", 0x7c2c2021), digest: 0xb039af42dc02e960, simTime: 37122570, inj: 512},
	{name: "hotspot", sc: shardedScenario("hotspot", 0x51edba5e), digest: 0x1cf222ad84571a80, simTime: 36080486, inj: 512},
	{name: "test-badswap", sc: shardedScenario("test-badswap", 0x7c2c2021),
		err: `tcapp: no registered app "test-no-such-app" (have [histo kvstore tcbench])`},
	{name: "test-badswap", sc: shardedScenario("test-badswap", 0x51edba5e),
		err: `tcapp: no registered app "test-no-such-app" (have [histo kvstore tcbench])`},
	{name: "test-oob", sc: shardedScenario("test-oob", 0x7c2c2021), err: "workload: invalid scenario: Traffic: emit to node 9 of 9"},
	{name: "test-oob", sc: shardedScenario("test-oob", 0x51edba5e), err: "workload: invalid scenario: Traffic: emit to node 9 of 9"},
	{name: "test-pair", sc: shardedScenario("test-pair", 0x7c2c2021), digest: 0xbe5a80f1d5907a20, simTime: 5025797, inj: 16},
	{name: "test-pair", sc: shardedScenario("test-pair", 0x51edba5e), digest: 0x6ed455fc38d79360, simTime: 7173845, inj: 16},
	{name: "test-selfloop", sc: shardedScenario("test-selfloop", 0x7c2c2021), err: "core: mesh channel 0->0 is a self-loop"},
	{name: "test-selfloop", sc: shardedScenario("test-selfloop", 0x51edba5e), err: "core: mesh channel 0->0 is a self-loop"},
	{name: "test-silent", sc: shardedScenario("test-silent", 0x7c2c2021)},
	{name: "test-silent", sc: shardedScenario("test-silent", 0x51edba5e)},
	{name: "seed4003", sc: meshScaleSeed4003(), digest: 0xcde4a6b1f968acb0, simTime: 1009721738, inj: 30720},
	{name: "alltoall64", sc: mesh64(AllToAll), digest: 0x5efb8e7dfba38000, simTime: 552597244, inj: 64512},
	{name: "fanout64", sc: mesh64(Fanout), digest: 0xa567b7cb095450e0, simTime: 536012447, inj: 1008},
	{name: "hotspot64", sc: mesh64(Hotspot), digest: 0xf9805854a37cc1d0, simTime: 1049103581, inj: 63504},
}

// TestShardedPins checks shardedPins, and that every traffic shape in
// the table has rows there.
func TestShardedPins(t *testing.T) {
	pinned := map[string]bool{}
	for _, p := range shardedPins {
		pinned[p.name] = true
	}
	for _, name := range TrafficNames() {
		if !pinned[name] {
			t.Errorf("traffic %q has no rows in shardedPins", name)
		}
	}
	runPins(t, shardedPins, nil)
}

// composedPins: the open-loop and multi-phase compositions on four shards
// and unsharded (the root package's BenchmarkKVStoreOpenLoop and
// BenchmarkMultiPhaseMix shapes), and BenchmarkMeshChaos64's shape with
// its loss ledger. Captured at commit 2d40b5f; the unsharded and 64-node
// rows at ba66a50.
var composedPins = []meshPin{
	{name: "kvstore", sc: onShards(KVStoreScenario(8), 4), digest: 0x58152e6ff9ed7a4d, simTime: 106349032, inj: 448},
	{name: "kvstore", sc: KVStoreScenario(8), digest: 0xc5ee4c9cd654ea29, simTime: 105656032, inj: 448},
	{name: "multiphase", sc: onShards(MultiPhaseScenario(8), 4), digest: 0x73cedd7b7208942, simTime: 389109247, inj: 1008},
	{name: "multiphase", sc: MultiPhaseScenario(8), digest: 0xe03f34ad91fde904, simTime: 385982247, inj: 1008},
	{name: "chaos64", sc: meshChaos64(), digest: 0xd2869015c76cbe60, simTime: 1675786073, inj: 191528, lost: 2008},
}

// TestComposedPins pins the phase-barrier machinery: the open-loop and
// multi-phase compositions on four fabric shards and on one, and the
// 64-node chaos composition.
func TestComposedPins(t *testing.T) {
	runPins(t, composedPins, nil)
}

// chaosPins: perturbed fabric, MMPP arrivals, a node failure and its
// rejoin (chaosScenario), loss ledger included. Captured at commit
// 2d40b5f.
var chaosPins = []meshPin{
	{name: "chaos", sc: chaosScenario(0x7c2c2021), digest: 0x468dcd4408a4e328, simTime: 80281736, inj: 1604, lost: 124},
	{name: "chaos", sc: chaosScenario(0x51edba5e), digest: 0xa3e1a3b26ae954a8, simTime: 81070958, inj: 1604, lost: 124},
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

// tenantGoldenPins were captured before the run loops were unified.
var tenantGoldenPins = []tenantPin{
	{name: "overload", sc: OverloadScenario(8, 4), digest: 0x6ac5c80cce9a3a00, simTime: 498400384, overlap: 338096016, tenants: []tenantRow{
		{"gold", 2688, 0, 0, 0, 5361045, []int64{498400384}},
		{"bronze", 2688, 0, 0, 0, 210577205, []int64{498400384}},
	}},
	{name: "two-phase", sc: twoPhaseTenantScenario(), digest: 0x3a28b02d26d635b0, simTime: 142113853, overlap: 86757343, tenants: []tenantRow{
		{"gold", 360, 0, 0, 0, 2533000, []int64{24938560, 142113853}},
		{"bronze", 360, 0, 169, 0, 2702845, []int64{96766332, 142113853}},
	}},
}

// TestTenantGoldenRuns pins the multi-tenant driver the way
// TestGoldenDigests pins the single-tenant one.
func TestTenantGoldenRuns(t *testing.T) {
	for _, p := range tenantGoldenPins {
		p := p
		t.Run(p.name, func(t *testing.T) { p.check(t) })
	}
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

// shardedTenantPins were captured at commit 2d40b5f.
var shardedTenantPins = []tenantPin{
	{name: "two-phase/7c2c2021", sc: shardedTwoPhaseTenants(0x7c2c2021), digest: 0xfed485b184a9abb0, simTime: 279296148, overlap: 148242020, tenants: []tenantRow{
		{"gold", 864, 0, 0, 0, 2385736, []int64{84897310, 279296148}},
		{"bronze", 576, 0, 0, 0, 2465443, []int64{279296148}},
	}},
	{name: "failing/7c2c2021", sc: shardedFailingTenants(0x7c2c2021), digest: 0xe1554929c892ee55, simTime: 674746559, overlap: 538033198, tenants: []tenantRow{
		{"gold", 2565, 0, 0, 795, 291932856, []int64{71684676, 478544487, 674746559}},
		{"bronze", 2177, 0, 7188, 703, 580746528, []int64{674746559}},
	}},
	{name: "two-phase/51edba5e", sc: shardedTwoPhaseTenants(0x51edba5e), digest: 0xc2cf86fd4a84de90, simTime: 269990378, overlap: 147433400, tenants: []tenantRow{
		{"gold", 864, 0, 0, 0, 2707239, []int64{108458523, 269990378}},
		{"bronze", 576, 0, 0, 0, 2782575, []int64{269990378}},
	}},
	{name: "failing/51edba5e", sc: shardedFailingTenants(0x51edba5e), digest: 0x8076a448dfd2b4fc, simTime: 674640788, overlap: 537854234, tenants: []tenantRow{
		{"gold", 2564, 0, 0, 796, 293512468, []int64{71436984, 478461254, 674640788}},
		{"bronze", 2177, 0, 7099, 703, 579592675, []int64{674640788}},
	}},
}

// TestShardedTenantPins pins tenant scenarios on a four-shard fabric — a
// per-lane phase barrier, and a node failure under two tenants — per
// seed: digests, simulated times, and per-tenant results.
func TestShardedTenantPins(t *testing.T) {
	for _, p := range shardedTenantPins {
		p := p
		t.Run(p.name, func(t *testing.T) { p.check(t) })
	}
}
