package core

import (
	"testing"
	"testing/quick"

	"twochains/internal/mailbox"
	"twochains/internal/sim"
)

// iputC is a reimplementation of the Indirect Put jam in AMC (the paper's
// C-source flow). It must behave identically to the hand-written assembly
// version for matching inputs.
const iputC = `
extern long memcpy(byte* dst, byte* src, long n);
extern long tc_table[];
extern long tc_heap[];

long jam_ciput(long* args, byte* usr, long len) {
    long key = args[0];
    long h = key * 40503;          // a simpler mix, same probe discipline
    h = (h ^ (h >> 13)) & 65535;
    long* table = tc_table;
    long off = 0;
    for (;;) {
        long slotKey = table[h * 2];
        if (slotKey == key) {
            off = table[h * 2 + 1];
            break;
        }
        if (slotKey == 0) {
            table[h * 2] = key;
            off = (h & 63) << 16;
            table[h * 2 + 1] = off;
            break;
        }
        h = (h + 1) & 65535;
    }
    byte* heap = tc_heap;
    memcpy(heap + off, usr, len);
    return off;
}
`

// TestCJamMatchesAsmSemantics injects the C-compiled Indirect Put and
// verifies the same key→offset stability and payload placement properties
// the assembly jam satisfies.
func TestCJamMatchesAsmSemantics(t *testing.T) {
	sources := BenchPackageSources()
	sources["jam_ciput.amc"] = iputC
	pkg, err := BuildPackage("tcbench", sources)
	if err != nil {
		t.Fatal(err)
	}
	m := newPair(t, 2, mailbox.Geometry{Banks: 2, Slots: 4, FrameSize: 2048}, true, quickCfg(), 0)
	if err := m.InstallPackage(pkg); err != nil {
		t.Fatal(err)
	}
	ch, err := m.Channel(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := m.Node(1)

	var offsets []uint64
	b.OnExecuted = func(r uint64, _ sim.Duration, err error) {
		if err != nil {
			t.Errorf("exec: %v", err)
		}
		offsets = append(offsets, r)
	}
	payload := []byte("C-compiled indirect put payload")
	for _, key := range []uint64{7, 7, 1234, 7} {
		if err := ch.Handle("tcbench", "jam_ciput").Inject([2]uint64{key, 0}, payload, nil); err != nil {
			t.Fatal(err)
		}
	}
	m.Run()
	if len(offsets) != 4 {
		t.Fatalf("executed %d times", len(offsets))
	}
	// Same key -> same offset, every time.
	if offsets[0] != offsets[1] || offsets[0] != offsets[3] {
		t.Fatalf("key 7 offsets unstable: %v", offsets)
	}
	// Payload landed where the function said it did.
	heapVA, _ := b.SymbolVA("tc_heap")
	got, err := b.AS.ReadBytes(heapVA+offsets[2], len(payload))
	if err != nil || string(got) != string(payload) {
		t.Fatalf("heap payload %q, %v", got, err)
	}
	// Both keys are in the shared table, alongside anything the asm jam
	// would insert: the two flavours interoperate on one data structure.
	tableVA, _ := b.SymbolVA("tc_table")
	found := map[uint64]bool{}
	for slot := 0; slot < 65536; slot++ {
		k, _ := b.AS.ReadU64(tableVA + uint64(slot*16))
		if k != 0 {
			found[k] = true
		}
	}
	if !found[7] || !found[1234] {
		t.Fatalf("table keys: %v", found)
	}
}

// TestLocalInjectedEquivalenceProperty: for arbitrary payloads, the two
// invocation methods of the same source compute the same sum.
func TestLocalInjectedEquivalenceProperty(t *testing.T) {
	pkg, err := BuildBenchPackage()
	if err != nil {
		t.Fatal(err)
	}
	run := func(payload []byte, local bool) (uint64, bool) {
		m := newPair(t, 2, mailbox.Geometry{Banks: 1, Slots: 1, FrameSize: 2048}, false, quickCfg(), 0)
		if err := m.InstallPackage(pkg); err != nil {
			return 0, false
		}
		ch, err := m.Channel(0, 1)
		if err != nil {
			return 0, false
		}
		var ret uint64
		ok := true
		m.Node(1).OnExecuted = func(r uint64, _ sim.Duration, err error) {
			if err != nil {
				ok = false
			}
			ret = r
		}
		if local {
			err = ch.Handle("tcbench", "jam_sssum").CallLocal([2]uint64{}, payload, nil)
		} else {
			err = ch.Handle("tcbench", "jam_sssum").Inject([2]uint64{}, payload, nil)
		}
		if err != nil {
			return 0, false
		}
		m.Run()
		return ret, ok
	}
	f := func(raw []byte) bool {
		if len(raw) > 1400 {
			raw = raw[:1400]
		}
		li, ok1 := run(raw, true)
		inj, ok2 := run(raw, false)
		return ok1 && ok2 && li == inj && li == expectedSum(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestInjectedFaultIsIsolated: a jam that faults on the receiver is
// reported and consumed; the mailbox keeps processing later messages.
func TestInjectedFaultIsIsolated(t *testing.T) {
	sources := map[string]string{
		"jam_crash.ams": `
.global jam_crash
jam_crash:
    movi r3, 0
    ld   r4, [r3+0]     ; null dereference
    ret
`,
		"jam_fine.ams": `
.global jam_fine
jam_fine:
    movi r0, 77
    ret
`,
	}
	pkg, err := BuildPackage("crashy", sources)
	if err != nil {
		t.Fatal(err)
	}
	m := newPair(t, 2, mailbox.Geometry{Banks: 1, Slots: 2, FrameSize: 256}, false, quickCfg(), 0)
	if err := m.InstallPackage(pkg); err != nil {
		t.Fatal(err)
	}
	ch, err := m.Channel(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var rets []uint64
	var errs int
	m.Node(1).OnExecuted = func(r uint64, _ sim.Duration, err error) {
		if err != nil {
			errs++
			return
		}
		rets = append(rets, r)
	}
	if err := ch.Handle("crashy", "jam_crash").Inject([2]uint64{}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := ch.Handle("crashy", "jam_fine").Inject([2]uint64{}, nil, nil); err != nil {
		t.Fatal(err)
	}
	m.Run()
	if errs != 1 {
		t.Fatalf("fault count %d", errs)
	}
	if len(rets) != 1 || rets[0] != 77 {
		t.Fatalf("survivor results %v", rets)
	}
	if ch.Recv.Processed != 2 {
		t.Fatalf("processed %d", ch.Recv.Processed)
	}
	if ch.Recv.Errors != 1 {
		t.Fatalf("receiver errors %d", ch.Recv.Errors)
	}
}

// TestRunawayJamIsBounded: an injected infinite loop hits the VM's
// instruction budget instead of wedging the node.
func TestRunawayJamIsBounded(t *testing.T) {
	pkg, err := BuildPackage("spin", map[string]string{
		"jam_spin.ams": ".global jam_spin\njam_spin:\nspin:\n    jmp spin\n",
	})
	if err != nil {
		t.Fatal(err)
	}
	m := newPair(t, 2, mailbox.Geometry{Banks: 1, Slots: 1, FrameSize: 256}, false, quickCfg(), 0)
	if err := m.InstallPackage(pkg); err != nil {
		t.Fatal(err)
	}
	b := m.Node(1)
	b.VM.InstrBudget = 100000
	ch, err := m.Channel(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var execErr error
	b.OnExecuted = func(_ uint64, _ sim.Duration, err error) { execErr = err }
	if err := ch.Handle("spin", "jam_spin").Inject([2]uint64{}, nil, nil); err != nil {
		t.Fatal(err)
	}
	m.Run()
	if execErr == nil {
		t.Fatal("runaway jam completed without tripping the budget")
	}
}

// --- mesh workload equivalence: every traffic pattern of the sharded
// many-node fabric must execute injected code identically to the native
// oracle on every node ---

// meshBench builds an n-node mesh with tcbench installed everywhere and a
// per-node return collector.
func meshBench(t *testing.T, nodes, shards int) (*Mesh, [][]uint64) {
	t.Helper()
	cfg := DefaultMeshConfig(nodes)
	cfg.Shards = shards
	cfg.Node = quickCfg()
	cfg.Geometry = mailbox.Geometry{Banks: 2, Slots: 4, FrameSize: 2048}
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
	rets := make([][]uint64, nodes)
	for i := 0; i < nodes; i++ {
		node := i
		m.Node(i).OnExecuted = func(ret uint64, _ sim.Duration, err error) {
			if err != nil {
				t.Errorf("node %d exec: %v", node, err)
			}
			rets[node] = append(rets[node], ret)
		}
	}
	return m, rets
}

// TestMeshFanoutNativeOracle: a fan-out broadcast of Server-Side Sum
// executes on every receiver with the natively computed sum.
func TestMeshFanoutNativeOracle(t *testing.T) {
	const nodes, rounds = 8, 3
	m, rets := meshBench(t, nodes, 2)
	payload := make([]byte, 96)
	for i := range payload {
		payload[i] = byte(i*13 + 5)
	}
	want := expectedSum(payload)
	for r := 0; r < rounds; r++ {
		for dst := 1; dst < nodes; dst++ {
			ch, err := m.Channel(0, dst)
			if err != nil {
				t.Fatal(err)
			}
			if err := ch.Handle("tcbench", "jam_sssum").Inject([2]uint64{}, payload, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	m.Run()
	if len(rets[0]) != 0 {
		t.Errorf("root executed %d messages", len(rets[0]))
	}
	for n := 1; n < nodes; n++ {
		if len(rets[n]) != rounds {
			t.Errorf("node %d executed %d, want %d", n, len(rets[n]), rounds)
		}
		for _, r := range rets[n] {
			if r != want {
				t.Errorf("node %d: ret %d, want native %d", n, r, want)
			}
		}
	}
}

// TestMeshAllToAllNativeOracle: an all-to-all exchange where every node
// sends each peer one Injected and one Local invocation of the same
// source; both methods must match the native oracle on every node.
func TestMeshAllToAllNativeOracle(t *testing.T) {
	const nodes = 8
	m, rets := meshBench(t, nodes, 2)
	payload := make([]byte, 56)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	want := expectedSum(payload)
	for src := 0; src < nodes; src++ {
		for dst := 0; dst < nodes; dst++ {
			if src == dst {
				continue
			}
			ch, err := m.Channel(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			if err := ch.Handle("tcbench", "jam_sssum").Inject([2]uint64{}, payload, nil); err != nil {
				t.Fatal(err)
			}
			if err := ch.Handle("tcbench", "jam_sssum").CallLocal([2]uint64{}, payload, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	m.Run()
	for n := 0; n < nodes; n++ {
		if len(rets[n]) != 2*(nodes-1) {
			t.Errorf("node %d executed %d, want %d", n, len(rets[n]), 2*(nodes-1))
		}
		for _, r := range rets[n] {
			if r != want {
				t.Errorf("node %d: ret %d, want native %d (injected and local must agree)", n, r, want)
			}
		}
	}
}

// TestMeshHotspotHotSwapOracle: skewed Indirect Put traffic into a hot
// node, then a ried hot-swap rebinding the server state, then the same key
// sequence again. The oracle: hashing is a pure function of the key
// sequence, so a fresh table must reproduce the first epoch's offsets
// exactly, and the swap must actually move the bound state symbols.
func TestMeshHotspotHotSwapOracle(t *testing.T) {
	const nodes, hot = 8, 3
	m, rets := meshBench(t, nodes, 2)
	payload := []byte("hotspot epoch payload")
	keys := []uint64{7, 99, 7, 40503, 7777, 99, 12}

	epoch := func() []uint64 {
		start := len(rets[hot])
		ch, err := m.Channel(1, hot)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if err := ch.Handle("tcbench", "jam_iput").Inject([2]uint64{k, 0}, payload, nil); err != nil {
				t.Fatal(err)
			}
		}
		// Background load on the non-hot nodes, oracle-checked below.
		for dst := 0; dst < nodes; dst++ {
			if dst == hot || dst == 1 {
				continue
			}
			bg, err := m.Channel(1, dst)
			if err != nil {
				t.Fatal(err)
			}
			if err := bg.Handle("tcbench", "jam_sssum").Inject([2]uint64{}, payload, nil); err != nil {
				t.Fatal(err)
			}
		}
		m.Run()
		return rets[hot][start:]
	}

	first := epoch()
	if len(first) != len(keys) {
		t.Fatalf("epoch 1 executed %d of %d", len(first), len(keys))
	}
	// Same key -> same offset within the epoch (7 at 0/2, 99 at 1/5).
	if first[0] != first[2] || first[1] != first[5] {
		t.Fatalf("repeated-key offsets unstable in epoch 1: %v", first)
	}

	tableBefore, _ := m.Node(hot).SymbolVA("tc_table")
	spkg, err := BuildPackage("kvbench-swap", map[string]string{
		"ried_kvbench.rds": RiedKVBenchSrc,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range spkg.Elements {
		if e.Kind != ElemRied {
			continue
		}
		if _, err := m.Node(hot).InstallRied(e.Ried, true); err != nil {
			t.Fatal(err)
		}
	}
	m.RefreshNames(hot)
	tableAfter, _ := m.Node(hot).SymbolVA("tc_table")
	if tableBefore == tableAfter {
		t.Fatal("hot-swap did not rebind tc_table")
	}

	second := epoch()
	if len(second) != len(keys) {
		t.Fatalf("epoch 2 executed %d of %d", len(second), len(keys))
	}
	for i := range keys {
		if first[i] != second[i] {
			t.Fatalf("offset sequence diverged after hot-swap: epoch1 %v, epoch2 %v", first, second)
		}
	}
	// The background sssum traffic stayed native-correct throughout.
	want := expectedSum(payload)
	for n := 0; n < nodes; n++ {
		if n == hot || n == 1 {
			continue
		}
		for _, r := range rets[n] {
			if r != want {
				t.Errorf("node %d background ret %d, want %d", n, r, want)
			}
		}
	}
}

// TestDeterministicRuns: the same seed produces bit-identical simulated
// timings across full benchmark deployments.
func TestDeterministicRuns(t *testing.T) {
	run := func() sim.Duration {
		pkg, err := BuildBenchPackage()
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultNodeConfig()
		cfg.MemBytes = 32 << 20
		m := newPair(t, 2, mailbox.Geometry{Banks: 2, Slots: 2, FrameSize: 2048}, true, cfg, 0)
		if err := m.InstallPackage(pkg); err != nil {
			t.Fatal(err)
		}
		m.Node(1).SetStress(true)
		ch, err := m.Channel(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			if err := ch.Handle("tcbench", "jam_iput").Inject([2]uint64{uint64(i + 1), 0}, make([]byte, 64), nil); err != nil {
				t.Fatal(err)
			}
		}
		m.Run()
		return sim.Duration(m.Now())
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same-seed runs diverged: %v vs %v", a, b)
	}
}
