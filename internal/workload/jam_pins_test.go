package workload

import (
	"testing"

	"twochains/internal/core"
	"twochains/internal/tcapp"
)

// jamScenario runs one jam element of a registered app alone on a 4-node
// fanout, timing on: 192 deliveries a channel, six passes over the 32
// slots of the default mailbox geometry, so every slot is re-delivered
// the same bytes and the content-keyed jam cache both hits and misses.
func jamScenario(app, elem string, seed uint64, backend string) Scenario {
	sc := DefaultScenario(Fanout, 4)
	sc.Burst = 8
	sc.Rounds = 24
	sc.Seed = seed
	sc.Backend = backend
	sc.Mix = []ElementMix{{Pkg: app, Elem: elem, Weight: 1}}
	return sc
}

// jamPins: every jam element of every registered app, at two seeds on
// both fabric backends. The digest, simulated time and every node's
// {Sent, Executed, Errors, Digest} row were captured at commit 9dbd9d9.
var jamPins = []meshPin{
	{name: "histo/seed=7c2c2021/backend=simnet", sc: jamScenario("histo", "jam_hist_add", 0x7c2c2021, "simnet"), digest: 0xe3f37ec2ba5c6080, simTime: 1232105115, inj: 576,
		nodes: []NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0xa1512a40e8c97580}, {192, 192, 0, 0xa1512a40e8c97580}, {192, 192, 0, 0xa1512a40e8c97580}}},
	{name: "histo/seed=7c2c2021/backend=simnet", sc: jamScenario("histo", "jam_hist_sum", 0x7c2c2021, "simnet"), digest: 0xffdda451f0e3880, simTime: 132034402, inj: 576,
		nodes: []NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}}},
	{name: "histo/seed=7c2c2021/backend=ideal", sc: jamScenario("histo", "jam_hist_add", 0x7c2c2021, "ideal"), digest: 0xe3f37ec2ba5c6080, simTime: 1230895116, inj: 576,
		nodes: []NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0xa1512a40e8c97580}, {192, 192, 0, 0xa1512a40e8c97580}, {192, 192, 0, 0xa1512a40e8c97580}}},
	{name: "histo/seed=7c2c2021/backend=ideal", sc: jamScenario("histo", "jam_hist_sum", 0x7c2c2021, "ideal"), digest: 0xffdda451f0e3880, simTime: 109005085, inj: 576,
		nodes: []NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}}},
	{name: "histo/seed=51edba5e/backend=simnet", sc: jamScenario("histo", "jam_hist_add", 0x51edba5e, "simnet"), digest: 0xe3f37ec2ba5c6080, simTime: 1232105115, inj: 576,
		nodes: []NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0xa1512a40e8c97580}, {192, 192, 0, 0xa1512a40e8c97580}, {192, 192, 0, 0xa1512a40e8c97580}}},
	{name: "histo/seed=51edba5e/backend=simnet", sc: jamScenario("histo", "jam_hist_sum", 0x51edba5e, "simnet"), digest: 0xffdda451f0e3880, simTime: 132034402, inj: 576,
		nodes: []NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}}},
	{name: "histo/seed=51edba5e/backend=ideal", sc: jamScenario("histo", "jam_hist_add", 0x51edba5e, "ideal"), digest: 0xe3f37ec2ba5c6080, simTime: 1230895116, inj: 576,
		nodes: []NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0xa1512a40e8c97580}, {192, 192, 0, 0xa1512a40e8c97580}, {192, 192, 0, 0xa1512a40e8c97580}}},
	{name: "histo/seed=51edba5e/backend=ideal", sc: jamScenario("histo", "jam_hist_sum", 0x51edba5e, "ideal"), digest: 0xffdda451f0e3880, simTime: 109005085, inj: 576,
		nodes: []NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}}},
	{name: "kvstore/seed=7c2c2021/backend=simnet", sc: jamScenario("kvstore", "jam_kv_get", 0x7c2c2021, "simnet"), digest: 0xffdda451f0e3880, simTime: 137679482, inj: 576,
		nodes: []NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}}},
	{name: "kvstore/seed=7c2c2021/backend=simnet", sc: jamScenario("kvstore", "jam_kv_put", 0x7c2c2021, "simnet"), digest: 0xb2e0dd4cb7968146, simTime: 281304250, inj: 576,
		nodes: []NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0x1399863f2b05848c}, {192, 192, 0, 0x2fe094702e4504bf}, {192, 192, 0, 0x6f66c29d5e4bf7fb}}},
	{name: "kvstore/seed=7c2c2021/backend=simnet", sc: jamScenario("kvstore", "jam_kv_scan", 0x7c2c2021, "simnet"), digest: 0xffdda451f0e3880, simTime: 137599330, inj: 576,
		nodes: []NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}}},
	{name: "kvstore/seed=7c2c2021/backend=ideal", sc: jamScenario("kvstore", "jam_kv_get", 0x7c2c2021, "ideal"), digest: 0xffdda451f0e3880, simTime: 113626133, inj: 576,
		nodes: []NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}}},
	{name: "kvstore/seed=7c2c2021/backend=ideal", sc: jamScenario("kvstore", "jam_kv_put", 0x7c2c2021, "ideal"), digest: 0xb2e0dd4cb7968146, simTime: 252130933, inj: 576,
		nodes: []NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0x1399863f2b05848c}, {192, 192, 0, 0x2fe094702e4504bf}, {192, 192, 0, 0x6f66c29d5e4bf7fb}}},
	{name: "kvstore/seed=7c2c2021/backend=ideal", sc: jamScenario("kvstore", "jam_kv_scan", 0x7c2c2021, "ideal"), digest: 0xffdda451f0e3880, simTime: 113545981, inj: 576,
		nodes: []NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}}},
	{name: "kvstore/seed=51edba5e/backend=simnet", sc: jamScenario("kvstore", "jam_kv_get", 0x51edba5e, "simnet"), digest: 0xffdda451f0e3880, simTime: 137764482, inj: 576,
		nodes: []NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}}},
	{name: "kvstore/seed=51edba5e/backend=simnet", sc: jamScenario("kvstore", "jam_kv_put", 0x51edba5e, "simnet"), digest: 0x48b85ea49c61a5cf, simTime: 281474250, inj: 576,
		nodes: []NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0x49dc3c5d23be3ea0}, {192, 192, 0, 0x4b947e0f77b65328}, {192, 192, 0, 0xb347a43800ed1407}}},
	{name: "kvstore/seed=51edba5e/backend=simnet", sc: jamScenario("kvstore", "jam_kv_scan", 0x51edba5e, "simnet"), digest: 0xffdda451f0e3880, simTime: 137854330, inj: 576,
		nodes: []NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}}},
	{name: "kvstore/seed=51edba5e/backend=ideal", sc: jamScenario("kvstore", "jam_kv_get", 0x51edba5e, "ideal"), digest: 0xffdda451f0e3880, simTime: 113711133, inj: 576,
		nodes: []NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}}},
	{name: "kvstore/seed=51edba5e/backend=ideal", sc: jamScenario("kvstore", "jam_kv_put", 0x51edba5e, "ideal"), digest: 0x48b85ea49c61a5cf, simTime: 252300933, inj: 576,
		nodes: []NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0x49dc3c5d23be3ea0}, {192, 192, 0, 0x4b947e0f77b65328}, {192, 192, 0, 0xb347a43800ed1407}}},
	{name: "kvstore/seed=51edba5e/backend=ideal", sc: jamScenario("kvstore", "jam_kv_scan", 0x51edba5e, "ideal"), digest: 0xffdda451f0e3880, simTime: 113800981, inj: 576,
		nodes: []NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}}},
	{name: "tcbench/seed=7c2c2021/backend=simnet", sc: jamScenario("tcbench", "jam_hello", 0x7c2c2021, "simnet"), digest: 0xffdda451f0e3880, simTime: 123851629, inj: 576,
		nodes: []NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}}},
	{name: "tcbench/seed=7c2c2021/backend=simnet", sc: jamScenario("tcbench", "jam_iput", 0x7c2c2021, "simnet"), digest: 0xc6489fe0fec33880, simTime: 301856306, inj: 576,
		nodes: []NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0x2b23f304ddfebd80}, {192, 192, 0, 0x77e087a25ef1bd80}, {192, 192, 0, 0x23442539c1d2bd80}}},
	{name: "tcbench/seed=7c2c2021/backend=simnet", sc: jamScenario("tcbench", "jam_sssum", 0x7c2c2021, "simnet"), digest: 0x6a311cf9a06ca480, simTime: 128624402, inj: 576,
		nodes: []NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0x78bb09a88acee180}, {192, 192, 0, 0x78bb09a88acee180}, {192, 192, 0, 0x78bb09a88acee180}}},
	{name: "tcbench/seed=7c2c2021/backend=ideal", sc: jamScenario("tcbench", "jam_hello", 0x7c2c2021, "ideal"), digest: 0xffdda451f0e3880, simTime: 103894312, inj: 576,
		nodes: []NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}}},
	{name: "tcbench/seed=7c2c2021/backend=ideal", sc: jamScenario("tcbench", "jam_iput", 0x7c2c2021, "ideal"), digest: 0xc6489fe0fec33880, simTime: 264490973, inj: 576,
		nodes: []NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0x2b23f304ddfebd80}, {192, 192, 0, 0x77e087a25ef1bd80}, {192, 192, 0, 0x23442539c1d2bd80}}},
	{name: "tcbench/seed=7c2c2021/backend=ideal", sc: jamScenario("tcbench", "jam_sssum", 0x7c2c2021, "ideal"), digest: 0x6a311cf9a06ca480, simTime: 107643053, inj: 576,
		nodes: []NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0x78bb09a88acee180}, {192, 192, 0, 0x78bb09a88acee180}, {192, 192, 0, 0x78bb09a88acee180}}},
	{name: "tcbench/seed=51edba5e/backend=simnet", sc: jamScenario("tcbench", "jam_hello", 0x51edba5e, "simnet"), digest: 0xffdda451f0e3880, simTime: 123850860, inj: 576,
		nodes: []NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}}},
	{name: "tcbench/seed=51edba5e/backend=simnet", sc: jamScenario("tcbench", "jam_iput", 0x51edba5e, "simnet"), digest: 0x3347b1c06b0c3880, simTime: 301819768, inj: 576,
		nodes: []NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0xbf5e41aa0bcebd80}, {192, 192, 0, 0x301bcdacca5abd80}, {192, 192, 0, 0x43cda26994e2bd80}}},
	{name: "tcbench/seed=51edba5e/backend=simnet", sc: jamScenario("tcbench", "jam_sssum", 0x51edba5e, "simnet"), digest: 0x6a311cf9a06ca480, simTime: 128624402, inj: 576,
		nodes: []NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0x78bb09a88acee180}, {192, 192, 0, 0x78bb09a88acee180}, {192, 192, 0, 0x78bb09a88acee180}}},
	{name: "tcbench/seed=51edba5e/backend=ideal", sc: jamScenario("tcbench", "jam_hello", 0x51edba5e, "ideal"), digest: 0xffdda451f0e3880, simTime: 103893543, inj: 576,
		nodes: []NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}, {192, 192, 0, 0xafff48c1b504bd80}}},
	{name: "tcbench/seed=51edba5e/backend=ideal", sc: jamScenario("tcbench", "jam_iput", 0x51edba5e, "ideal"), digest: 0x3347b1c06b0c3880, simTime: 264454435, inj: 576,
		nodes: []NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0xbf5e41aa0bcebd80}, {192, 192, 0, 0x301bcdacca5abd80}, {192, 192, 0, 0x43cda26994e2bd80}}},
	{name: "tcbench/seed=51edba5e/backend=ideal", sc: jamScenario("tcbench", "jam_sssum", 0x51edba5e, "ideal"), digest: 0x6a311cf9a06ca480, simTime: 107643053, inj: 576,
		nodes: []NodeResult{{0, 0, 0, 0x0}, {192, 192, 0, 0x78bb09a88acee180}, {192, 192, 0, 0x78bb09a88acee180}, {192, 192, 0, 0x78bb09a88acee180}}},
}

// jamMixFor names every injectable (jam) element of a registered app.
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

// threePackageTenants is the two-tenant composition on two shards with
// three packages: gold's open phase runs the kvstore mix, bronze's drain
// every histo jam, one lane behind a deferring token bucket.
func threePackageTenants() Scenario {
	sc := twoPhaseTenantScenario()
	sc.Shards = 2
	sc.Tenants[0].Phases[1].Mix = KVStoreMix()
	sc.Tenants[1].Phases[1].Mix = []ElementMix{
		{Pkg: "histo", Elem: "jam_hist_add", Weight: 1},
		{Pkg: "histo", Elem: "jam_hist_sum", Weight: 1},
	}
	return sc
}

// threePackageTenantsPin was captured at commit 9dbd9d9.
var threePackageTenantsPin = tenantPin{name: "tenants", sc: threePackageTenants(), digest: 0x6e3f372a9f01f2e, simTime: 238010240, inj: 720,
	nodes: []NodeResult{{120, 120, 0, 0xef25b6a73de51cfb}, {120, 120, 0, 0xc59fde65b5f764b4}, {120, 120, 0, 0xa92035b39d012ec6}, {120, 120, 0, 0x31c64d7c8245e6be}, {120, 120, 0, 0xd0a060cd989e3e80}, {120, 120, 0, 0xa6977a67fe2e497b}},
	tenants: []tenantRow{
		{"gold", 360, 0, 0, 0, 2533000, []int64{24938560, 238010240}},
		{"bronze", 360, 0, 169, 0, 2702845, []int64{96766332, 238010240}},
	}}

// TestJamElementPins checks jamPins, with slot hits and misses on every
// row, and that every jam element of every registered app has one row
// per seed and backend; then the multi-tenant composition of three
// packages, whose row pins per-tenant service and deferral counts, p99
// latency and phase ends.
func TestJamElementPins(t *testing.T) {
	rows := map[ElementMix]int{}
	for _, p := range jamPins {
		rows[p.sc.Mix[0]]++
	}
	for _, app := range tcapp.Names() {
		for _, e := range jamMixFor(t, app) {
			if rows[e] != 4 {
				t.Errorf("%s/%s: %d rows in jamPins, want 4 (two seeds, two backends)", app, e.Elem, rows[e])
			}
		}
	}
	runPins(t, jamPins, func(t *testing.T, p meshPin, res *Result) {
		if st := res.Mesh; st.SlotHits == 0 || st.SlotMisses == 0 {
			t.Errorf("%s: %d slot hits, %d misses; want both", p.label(), st.SlotHits, st.SlotMisses)
		}
	})
	t.Run(threePackageTenantsPin.name, func(t *testing.T) {
		res := threePackageTenantsPin.check(t)
		if res.Injections == 0 || res.Tenants[1].Deferred == 0 {
			t.Fatalf("tenant leg exercised nothing: %d injections, %+v", res.Injections, res.Tenants)
		}
	})
}

// hotSwapPin is the hotspot pattern with its mid-phase RIED hot-swap,
// which replaces code while traffic is in flight: a stale decode would
// execute dead code or fault. Captured at commit 9dbd9d9.
var hotSwapPin = meshPin{name: "hotspot", sc: hotSwapScenario(), digest: 0xfc9a20306c800da4, simTime: 60651130, inj: 450,
	nodes: []NodeResult{{30, 30, 0, 0x76ff756305700e2c}, {42, 42, 0, 0x39d4cf55e8ecd484}, {342, 342, 0, 0xd85b231f9f9cdd4c}, {6, 6, 0, 0x73579d3593570a7c}, {12, 12, 0, 0x9f3edfd21b8f8ab8}, {18, 18, 0, 0x60d43b502f9fb874}}}

func hotSwapScenario() Scenario {
	sc := DefaultScenario(Hotspot, 6)
	sc.Burst = 6
	sc.Rounds = 3
	return sc
}

// TestHotSwapPin pins jam-slot invalidation under load.
func TestHotSwapPin(t *testing.T) {
	t.Run(hotSwapPin.name, func(t *testing.T) {
		if res := hotSwapPin.check(t); res != nil && !res.Swapped {
			t.Fatal("hotspot swap did not fire — the test exercised nothing")
		}
	})
}

// The two small shapes TestInterpreterOptionWithTenants runs, captured at
// commit 9dbd9d9.
var (
	allToAll4Pin = meshPin{sc: DefaultScenario(AllToAll, 4), digest: 0x1acf2f18754dd310, simTime: 44236690, inj: 288,
		nodes: []NodeResult{{72, 72, 0, 0xfd03d2c1266f94d0}, {72, 72, 0, 0xa171c7c9e2db55a0}, {72, 72, 0, 0x94a2c21209f5680}, {72, 72, 0, 0x730f686c4b639220}}}
	tenants4Pin = tenantPin{sc: tenantScenario(4), digest: 0x8f9865e927d8d80, simTime: 76486394, inj: 192,
		nodes: []NodeResult{{48, 48, 0, 0x4a69dcda32a2e360}, {48, 48, 0, 0xe0cd661f091ae360}, {48, 48, 0, 0xb174c3ca59b5e360}, {48, 48, 0, 0x2c4d7f9afd09e360}},
		tenants: []tenantRow{
			{"gold", 96, 0, 0, 0, 2430937, []int64{76486394}},
			{"bronze", 96, 0, 0, 0, 2088252, []int64{76486394}},
		}}
)

// TestInterpreterOptionWithTenants pins that Scenario.Interpreter is
// inert whatever the lane layout: a scenario with Tenants and one without
// each read their pinned row with the field set or clear.
func TestInterpreterOptionWithTenants(t *testing.T) {
	for _, interp := range []bool{false, true} {
		mesh, tenants := allToAll4Pin, tenants4Pin
		mesh.sc.Interpreter = interp
		tenants.sc.Interpreter = interp
		mesh.check(t)
		tenants.check(t)
	}
}
