package core

import (
	"errors"
	"testing"

	"twochains/internal/fabric"
	"twochains/internal/mailbox"
	"twochains/internal/mem"
	"twochains/internal/memsim"
	"twochains/internal/sim"
)

func quickMeshCfg(nodes, shards int) MeshConfig {
	cfg := DefaultMeshConfig(nodes)
	cfg.Shards = shards
	cfg.Node = quickCfg()
	cfg.Geometry = mailbox.Geometry{Banks: 2, Slots: 4, FrameSize: 2048}
	return cfg
}

func TestMeshShardAssignment(t *testing.T) {
	m, err := NewMesh(quickMeshCfg(8, 2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		want := 0
		if i >= 4 {
			want = 1
		}
		if got := m.ShardOf(i); got != want {
			t.Errorf("node %d: shard %d, want %d", i, got, want)
		}
	}
	if _, err := NewMesh(MeshConfig{Nodes: 1}); err == nil {
		t.Error("1-node mesh accepted")
	}
}

// TestMeshChaosWrapsBackend: a set Chaos wraps whatever Backend selects
// in the chaos fabric, also when Backend does not say "chaos".
func TestMeshChaosWrapsBackend(t *testing.T) {
	for _, c := range []struct{ backend, inner, label string }{
		{"", "", "chaos(nic0)"},
		{"ideal", "", "chaos(ideal0)"},
		{"chaos", "", "chaos(nic0)"},
		{"simnet", "ideal", "chaos(ideal0)"},
	} {
		cfg := quickMeshCfg(2, 1)
		cfg.Backend = c.backend
		cfg.Chaos = &fabric.ChaosConfig{Inner: c.inner, MaxDelay: sim.Nanosecond}
		m, err := NewMesh(cfg)
		if err != nil {
			t.Fatalf("backend %q: %v", c.backend, err)
		}
		if _, ok := m.Fabric.(*fabric.Chaos); !ok {
			t.Errorf("backend %q with Chaos set built a %T", c.backend, m.Fabric)
		}
		if got := m.Node(0).Worker.NIC.Label(); got != c.label {
			t.Errorf("backend %q, inner %q: port %s, want %s", c.backend, c.inner, got, c.label)
		}
		if cfg.Chaos.Inner != c.inner {
			t.Errorf("NewMesh rewrote the caller's ChaosConfig.Inner to %q", cfg.Chaos.Inner)
		}
		m.Close()
	}
}

// TestChannelConfigDerived pins how ChannelView derives every channel
// setting from the deployment: the separate-signal protocol from an
// unordered fabric, GOT-pointer insertion from the destination node,
// variable frames and auto-switch from the mesh, and a tenant view's
// serving fields from its creation hook.
func TestChannelConfigDerived(t *testing.T) {
	for _, ordered := range []bool{true, false} {
		cfg := quickMeshCfg(3, 1)
		cfg.Ordered = ordered
		cfg.VariableFrames = true
		cfg.AutoSwitchAfter = 5
		cfg.PerNode = func(i int, nc NodeConfig) NodeConfig {
			nc.InsertGp = i == 1
			return nc
		}
		m, err := NewMesh(cfg)
		if err != nil {
			t.Fatal(err)
		}
		arb := mailbox.NewFairArbiter()
		arb.AddClass(1)
		class := arb.AddClass(2) // nonzero, so a dropped class shows
		tenant := func(rc mailbox.ReceiverConfig) mailbox.ReceiverConfig {
			rc.Arbiter, rc.ArbClass, rc.IsolationCost = arb, class, 7*sim.Nanosecond
			return rc
		}
		for _, c := range []struct {
			src, dst int
			view     string
		}{{0, 1, ""}, {1, 2, ""}, {2, 1, ""}, {0, 2, ""}, {2, 1, "t"}} {
			var hook func(mailbox.ReceiverConfig) mailbox.ReceiverConfig
			if c.view != "" {
				hook = tenant
			}
			ch, err := m.ChannelView(c.src, c.dst, c.view, hook)
			if err != nil {
				t.Fatal(err)
			}
			sc, rc := ch.Sender.Cfg, ch.Recv.Cfg
			if sc.SeparateSignal != !ordered {
				t.Errorf("ordered %v, %d->%d: SeparateSignal %v", ordered, c.src, c.dst, sc.SeparateSignal)
			}
			if sc.Geometry != cfg.Geometry || rc.Geometry != cfg.Geometry || sc.Credits != cfg.Credits || rc.Credits != cfg.Credits {
				t.Errorf("%d->%d: sender %+v and receiver %+v do not share the mesh geometry and credits", c.src, c.dst, sc, rc)
			}
			if rc.InsertGp != (c.dst == 1) {
				t.Errorf("%d->%d: InsertGp %v, want it on node 1's receivers only", c.src, c.dst, rc.InsertGp)
			}
			if !rc.VariableFrames || ch.autoSwitchAfter != 5 {
				t.Errorf("%d->%d: VariableFrames %v, auto-switch after %d; want true, 5", c.src, c.dst, rc.VariableFrames, ch.autoSwitchAfter)
			}
			var want mailbox.ReceiverConfig
			if hook != nil {
				want = hook(want)
			}
			if rc.Arbiter != want.Arbiter || rc.ArbClass != want.ArbClass || rc.IsolationCost != want.IsolationCost {
				t.Errorf("%d->%d view %q: arbiter %p class %d isolation %v", c.src, c.dst, c.view, rc.Arbiter, rc.ArbClass, rc.IsolationCost)
			}
		}
		m.Close()
	}
}

// TestMeshJamCacheSharedAcrossChannels: two receivers with identical
// namespaces cost the sender exactly one bind; the second channel's
// prepare is a cache hit.
func TestMeshJamCacheSharedAcrossChannels(t *testing.T) {
	m, err := NewMesh(quickMeshCfg(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := BuildBenchPackage()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.InstallPackage(pkg); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 32)
	for dst := 1; dst <= 2; dst++ {
		ch, err := m.Channel(0, dst)
		if err != nil {
			t.Fatal(err)
		}
		if err := ch.Handle("tcbench", "jam_sssum").Inject([2]uint64{}, payload, nil); err != nil {
			t.Fatal(err)
		}
	}
	m.Run()
	jc := m.Node(0).jams
	if jc.binds != 1 {
		t.Errorf("binds = %d, want 1 (identical receiver namespaces must share)", jc.binds)
	}
	if jc.hits != 1 {
		t.Errorf("hits = %d, want 1", jc.hits)
	}
	if got := m.Stats().Processed; got != 2 {
		t.Errorf("processed = %d, want 2", got)
	}
}

// TestMeshManySendersOneReceiver: every inbound channel owns its own
// mailbox region, so concurrent senders never collide on slot sequencing
// or credit flags.
func TestMeshManySendersOneReceiver(t *testing.T) {
	m, err := NewMesh(quickMeshCfg(6, 2))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := BuildBenchPackage()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.InstallPackage(pkg); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 16)
	want := expectedSum(payload)
	var rets []uint64
	m.Node(0).OnExecuted = func(ret uint64, _ sim.Duration, err error) {
		if err != nil {
			t.Errorf("exec: %v", err)
		}
		rets = append(rets, ret)
	}
	const perSender = 20 // more than one region's slots: exercises credits
	for src := 1; src < 6; src++ {
		ch, err := m.Channel(src, 0)
		if err != nil {
			t.Fatal(err)
		}
		args := make([][2]uint64, perSender)
		if err := ch.Handle("tcbench", "jam_sssum").InjectBurst(args, payload, nil); err != nil {
			t.Fatal(err)
		}
	}
	m.Run()
	if len(rets) != 5*perSender {
		t.Fatalf("executed %d of %d", len(rets), 5*perSender)
	}
	for _, r := range rets {
		if r != want {
			t.Fatalf("ret %d, want %d", r, want)
		}
	}
	if len(m.Node(0).Receivers) != 5 {
		t.Fatalf("receiver regions = %d, want 5", len(m.Node(0).Receivers))
	}
	if st := m.Stats(); st.Batches == 0 || st.CreditStalls == 0 {
		t.Fatalf("stats %+v: want batched puts and credit stalls", st)
	}
}

// TestMeshMemBytesRange: a negative MemBytes, and one whose address space
// would reach past the span the cache model numbers, are a typed
// *MemBytesError naming the node, not a panic in the address space; the
// largest space inside the span is built.
func TestMeshMemBytesRange(t *testing.T) {
	build := func(memBytes int) error {
		cfg := quickMeshCfg(2, 1)
		cfg.PerNode = func(i int, c NodeConfig) NodeConfig {
			if i == 1 {
				c.MemBytes = memBytes
			}
			return c
		}
		m, err := NewMesh(cfg)
		if err == nil {
			m.Close()
		}
		return err
	}
	top := int(memsim.Span - mem.Base)
	for _, bad := range []int{-1 << 20, -1, top + 1, top + mem.PageSize} {
		var me *MemBytesError
		if err := build(bad); !errors.As(err, &me) || me.Node != "n01" || me.MemBytes != bad {
			t.Errorf("MemBytes %d: %v, want a *MemBytesError for n01", bad, err)
		}
	}
	if err := build(top); err != nil {
		t.Errorf("MemBytes %d (the top of the span): %v", top, err)
	}
}

// TestMeshCrossShardSlower: with timing on, a put crossing the spine
// uplink takes longer than an intra-shard put of the same size.
func TestMeshCrossShardSlower(t *testing.T) {
	run := func(shards int) sim.Duration {
		cfg := quickMeshCfg(4, shards)
		cfg.Node = DefaultNodeConfig()
		cfg.Node.MemBytes = 32 << 20
		m, err := NewMesh(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pkg, err := BuildBenchPackage()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.InstallPackage(pkg); err != nil {
			t.Fatal(err)
		}
		// Node 0 -> node 3: same shard when shards=1, crossing when 2.
		ch, err := m.Channel(0, 3)
		if err != nil {
			t.Fatal(err)
		}
		var done sim.Time
		err = ch.Handle("tcbench", "jam_sssum").Inject([2]uint64{}, make([]byte, 64), func(r mailbox.SendInfo) {
			done = r.Delivered
		})
		if err != nil {
			t.Fatal(err)
		}
		m.Run()
		return sim.Duration(done)
	}
	intra, cross := run(1), run(2)
	if cross <= intra {
		t.Fatalf("cross-shard %v not slower than intra-shard %v", cross, intra)
	}
}

// TestFailNodeCountsPerView: FailNode reports the failed node's queued
// outbound sends per namespace view, each equal to what that view's
// channel queued, and leaves inbound queues out of the count. Failing the
// node again is the typed already-down error.
func TestFailNodeCountsPerView(t *testing.T) {
	m, err := NewMesh(quickMeshCfg(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := BuildBenchPackage()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.InstallPackage(pkg); err != nil {
		t.Fatal(err)
	}
	if err := m.InstallPackageView("gold", "gold::tcbench", pkg); err != nil {
		t.Fatal(err)
	}
	// Never run the engine: no credit returns, so every send past the
	// region's 8 slots stalls in the sender's queue.
	failed := map[string]int{}
	queue := func(src, dst int, view, alias string, sends int) {
		ch, err := m.ChannelView(src, dst, view, nil)
		if err != nil {
			t.Fatal(err)
		}
		key := view
		if src != 0 {
			key = "inbound"
		}
		for i := 0; i < sends; i++ {
			err := ch.Handle(alias, "jam_sssum").Inject([2]uint64{}, make([]byte, 8), func(r mailbox.SendInfo) {
				var nd *NodeDownError
				if errors.As(r.Err, &nd) {
					failed[key]++
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	queue(0, 1, "", "tcbench", 12)
	queue(0, 2, "gold", "gold::tcbench", 11)
	queue(1, 0, "", "tcbench", 10)

	counts, err := m.FailNode(0)
	if err != nil {
		t.Fatal(err)
	}
	if failed[""] == 0 || failed["gold"] == 0 || failed[""] == failed["gold"] || failed["inbound"] == 0 {
		t.Fatalf("queued-and-failed sends %v: want distinct nonzero base and view counts and an inbound backlog", failed)
	}
	if len(counts) != 2 || counts[""] != failed[""] || counts["gold"] != failed["gold"] {
		t.Fatalf("FailNode counts %v, want base %d and gold %d (inbound excluded)", counts, failed[""], failed["gold"])
	}
	_, err = m.FailNode(0)
	var nd *NodeDownError
	if !errors.As(err, &nd) || nd.Node != m.Node(0).Name {
		t.Fatalf("second FailNode: %v, want *NodeDownError naming %s", err, m.Node(0).Name)
	}
}
