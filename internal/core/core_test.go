package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"twochains/internal/mailbox"
	"twochains/internal/sim"
	"twochains/internal/wire"
)

// newPair builds a single-shard mesh of nodes on the production channel
// path: every channel gets its own mailbox region of geometry g on the
// destination. Install packages before the first Channel call, which runs
// the namespace exchange.
func newPair(t *testing.T, nodes int, g mailbox.Geometry, credits bool, nodeCfg NodeConfig, autoSwitchAfter int) *Mesh {
	t.Helper()
	cfg := DefaultMeshConfig(nodes)
	cfg.Shards = 1
	cfg.Node = nodeCfg
	cfg.Geometry = g
	cfg.Credits = credits
	cfg.AutoSwitchAfter = autoSwitchAfter
	m, err := NewMesh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// bench is a two-node mesh with the tcbench package installed on both
// sides and a channel from node 0 to node 1 (b).
type bench struct {
	m  *Mesh
	b  *Node
	ab *Channel
}

func newBench(t *testing.T, frameSize int, nodeCfg NodeConfig, autoSwitchAfter int) *bench {
	t.Helper()
	pkg, err := BuildBenchPackage()
	if err != nil {
		t.Fatal(err)
	}
	m := newPair(t, 2, mailbox.Geometry{Banks: 2, Slots: 4, FrameSize: frameSize}, true, nodeCfg, autoSwitchAfter)
	if err := m.InstallPackage(pkg); err != nil {
		t.Fatal(err)
	}
	ch, err := m.Channel(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return &bench{m: m, b: m.Node(1), ab: ch}
}

func quickCfg() NodeConfig {
	cfg := DefaultNodeConfig()
	cfg.Timing = false
	cfg.MemBytes = 32 << 20
	return cfg
}

// expectedSum mirrors jam_sssum's summation: u64 words then byte tail.
func expectedSum(payload []byte) uint64 {
	var sum uint64
	i := 0
	for ; i+8 <= len(payload); i += 8 {
		var w uint64
		for j := 0; j < 8; j++ {
			w |= uint64(payload[i+j]) << (8 * j)
		}
		sum += w
	}
	for ; i < len(payload); i++ {
		sum += uint64(payload[i])
	}
	return sum
}

func TestBenchPackageShape(t *testing.T) {
	pkg, err := BuildBenchPackage()
	if err != nil {
		t.Fatal(err)
	}
	iput, ok := pkg.Element("jam_iput")
	if !ok {
		t.Fatal("jam_iput missing")
	}
	// §VII-A: "The code for Indirect Put is 1408 bytes when shipped."
	if got := iput.Jam.ShippedSize(); got != 1408 {
		t.Fatalf("jam_iput shipped size = %d, want 1408", got)
	}
	sssum, ok := pkg.Element("jam_sssum")
	if !ok {
		t.Fatal("jam_sssum missing")
	}
	if sssum.Jam.ShippedSize() >= iput.Jam.ShippedSize() {
		t.Fatal("sssum jam should be smaller than iput")
	}
	if pkg.LocalLib == nil {
		t.Fatal("no local function library")
	}
	jams := 0
	for _, e := range pkg.Elements {
		if e.Kind == ElemJam {
			jams++
		}
	}
	if jams != 3 {
		t.Fatalf("jams = %d", jams)
	}
}

func TestPackageEncodeDecode(t *testing.T) {
	pkg, err := BuildBenchPackage()
	if err != nil {
		t.Fatal(err)
	}
	data := pkg.Encode()
	back, err := DecodePackage(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, pkg) {
		t.Fatalf("package round trip mismatch:\n%+v\n%+v", back, pkg)
	}
	// Every proper prefix, and the encoding with one byte appended, is a
	// typed *wire.Error.
	for cut := 0; cut <= len(data); cut++ {
		in := data[:cut]
		if cut == len(data) {
			in = append(in, 0)
		}
		var we *wire.Error
		if _, err := DecodePackage(in); !errors.As(err, &we) {
			t.Fatalf("%d of %d bytes: err = %v, want a *wire.Error", len(in), len(data), err)
		}
	}
}

// TestBuildPackageLongNames: BuildPackage refuses a package or file name
// that, or whose local library name, wire.Writer.Str cannot encode.
func TestBuildPackageLongNames(t *testing.T) {
	src := ".text\n.global jam_f\njam_f:\n    ret\n"
	long := strings.Repeat("x", wire.MaxStr)
	for _, c := range []struct {
		pkg, file string
	}{
		{long, "jam_f.ams"},
		{"p", "jam_" + long + ".ams"},
	} {
		if _, err := BuildPackage(c.pkg, map[string]string{c.file: src}); err == nil || !strings.Contains(err.Error(), "over the") {
			t.Errorf("package name %d bytes, file name %d bytes: err = %v, want a name-length refusal", len(c.pkg), len(c.file), err)
		}
	}
}

func TestInjectedSSSum(t *testing.T) {
	bn := newBench(t, 1024, quickCfg(), 0)
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var ret uint64
	bn.b.OnExecuted = func(r uint64, _ sim.Duration, err error) {
		if err != nil {
			t.Errorf("exec: %v", err)
		}
		ret = r
	}
	if err := bn.ab.Handle("tcbench", "jam_sssum").Inject([2]uint64{}, payload, nil); err != nil {
		t.Fatal(err)
	}
	bn.m.Run()
	want := expectedSum(payload)
	if ret != want {
		t.Fatalf("sum = %d, want %d", ret, want)
	}
	// The result was stored into the server's results array.
	resVA, _ := bn.b.SymbolVA("tc_results")
	v, err := bn.b.AS.ReadU64(resVA)
	if err != nil || v != want {
		t.Fatalf("tc_results[0] = %d, %v", v, err)
	}
	nextVA, _ := bn.b.SymbolVA("tc_result_next")
	nv, _ := bn.b.AS.ReadU64(nextVA)
	if nv != 1 {
		t.Fatalf("tc_result_next = %d", nv)
	}
}

func TestLocalMatchesInjected(t *testing.T) {
	// The two invocation methods must compute identical results from the
	// same source (paper §IV-B: same package, same code).
	for _, size := range []int{8, 60, 256, 1000} {
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i*13 + size)
		}
		run := func(local bool) uint64 {
			bn := newBench(t, 2048, quickCfg(), 0)
			var ret uint64
			bn.b.OnExecuted = func(r uint64, _ sim.Duration, err error) {
				if err != nil {
					t.Errorf("exec: %v", err)
				}
				ret = r
			}
			var err error
			if local {
				err = bn.ab.Handle("tcbench", "jam_sssum").CallLocal([2]uint64{}, payload, nil)
			} else {
				err = bn.ab.Handle("tcbench", "jam_sssum").Inject([2]uint64{}, payload, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
			bn.m.Run()
			return ret
		}
		li, inj := run(true), run(false)
		if li != inj || li != expectedSum(payload) {
			t.Fatalf("size %d: local %d, injected %d, want %d", size, li, inj, expectedSum(payload))
		}
	}
}

func TestIndirectPut(t *testing.T) {
	bn := newBench(t, 2048, quickCfg(), 0)
	payload := []byte("indirect put payload: the client controls placement")
	var offsets []uint64
	bn.b.OnExecuted = func(r uint64, _ sim.Duration, err error) {
		if err != nil {
			t.Errorf("exec: %v", err)
		}
		offsets = append(offsets, r)
	}
	// Same key twice, then a different key.
	for _, key := range []uint64{42, 42, 99} {
		if err := bn.ab.Handle("tcbench", "jam_iput").Inject([2]uint64{key, 0}, payload, nil); err != nil {
			t.Fatal(err)
		}
	}
	bn.m.Run()
	if len(offsets) != 3 {
		t.Fatalf("executed %d times", len(offsets))
	}
	if offsets[0] != offsets[1] {
		t.Fatalf("same key landed at different offsets: %d vs %d", offsets[0], offsets[1])
	}
	// Payload actually arrived at heap+offset.
	heapVA, _ := bn.b.SymbolVA("tc_heap")
	got, err := bn.b.AS.ReadBytes(heapVA+offsets[0], len(payload))
	if err != nil || string(got) != string(payload) {
		t.Fatalf("heap data %q, %v", got, err)
	}
	// The hash table recorded both keys.
	tableVA, _ := bn.b.SymbolVA("tc_table")
	foundKeys := map[uint64]bool{}
	for slot := 0; slot < 65536; slot++ {
		k, _ := bn.b.AS.ReadU64(tableVA + uint64(slot*16))
		if k != 0 {
			foundKeys[k] = true
		}
	}
	if !foundKeys[42] || !foundKeys[99] {
		t.Fatalf("table keys %v", foundKeys)
	}
}

func TestJamHelloPrintfWithTravellingRodata(t *testing.T) {
	bn := newBench(t, 1024, quickCfg(), 0)
	if err := bn.ab.Handle("tcbench", "jam_hello").Inject([2]uint64{7, 0}, []byte("xyz"), nil); err != nil {
		t.Fatal(err)
	}
	bn.m.Run()
	out := bn.b.Stdout.String()
	if !strings.Contains(out, "hello from node 7 (payload 3 bytes)") {
		t.Fatalf("stdout = %q", out)
	}
}

func TestInjectMissingSymbolFails(t *testing.T) {
	// Receiver without the ried: the namespace exchange lacks tc_table.
	pkg, err := BuildBenchPackage()
	if err != nil {
		t.Fatal(err)
	}
	m := newPair(t, 2, mailbox.Geometry{Banks: 1, Slots: 1, FrameSize: 2048}, false, quickCfg(), 0)
	if _, err := m.Node(0).InstallPackage(pkg); err != nil {
		t.Fatal(err)
	}
	// Node 1 gets no package at all.
	ch, err := m.Channel(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	err = ch.Handle("tcbench", "jam_iput").Inject([2]uint64{1, 0}, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "tc_") {
		t.Fatalf("inject without ried: %v", err)
	}
}

func TestAutoSwitchToLocal(t *testing.T) {
	bn := newBench(t, 1024, quickCfg(), 2)
	// Which invocation method went out is what arrived on the wire.
	var kinds []bool
	bn.ab.Recv.OnProcessed = func(d *mailbox.Delivery, _ sim.Time) {
		kinds = append(kinds, d.Kind == mailbox.KindInjected)
	}
	for i := 0; i < 5; i++ {
		err := bn.ab.Handle("tcbench", "jam_sssum").Inject([2]uint64{}, []byte{1, 2, 3, 4, 5, 6, 7, 8}, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	bn.m.Run()
	if len(kinds) != 5 {
		t.Fatalf("delivered %d", len(kinds))
	}
	want := []bool{true, true, false, false, false}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("auto-switch pattern %v, want %v", kinds, want)
		}
	}
	if bn.ab.Recv.Processed != 5 {
		t.Fatal("not all processed")
	}
}

func TestSecureExecMode(t *testing.T) {
	cfg := quickCfg()
	cfg.SecureExec = true
	cfg.CheckExec = true
	bn := newBench(t, 1024, cfg, 0)
	payload := make([]byte, 32)
	for i := range payload {
		payload[i] = byte(i)
	}
	var ret uint64
	var execErr error
	bn.b.OnExecuted = func(r uint64, _ sim.Duration, err error) { ret, execErr = r, err }
	if err := bn.ab.Handle("tcbench", "jam_sssum").Inject([2]uint64{}, payload, nil); err != nil {
		t.Fatal(err)
	}
	bn.m.Run()
	if execErr != nil {
		t.Fatal(execErr)
	}
	if ret != expectedSum(payload) {
		t.Fatalf("secure exec sum = %d, want %d", ret, expectedSum(payload))
	}
}

func TestPerProcessOverloading(t *testing.T) {
	// Paper §IV: "A program can easily define different functions with
	// the same symbolic name for different processes, so that when a
	// message arrives it will call a function specific to that process."
	mkRied := func(factor int) map[string]string {
		return map[string]string{
			"ried_scale.rds": `
.text
.global tc_scale
tc_scale:
    muli r0, r0, ` + itoa(factor) + `
    ret
`,
		}
	}
	jamSrc := `
.extern tc_scale
.global jam_scaled
jam_scaled:
    addi sp, sp, -16
    st   lr, [sp+0]
    ld   r0, [r0+0]
    callg tc_scale
    ld   lr, [sp+0]
    addi sp, sp, 16
    ret
`
	pkgB, err := BuildPackage("scaled", map[string]string{"jam_scaled.ams": jamSrc, "ried_scale.rds": mkRied(10)["ried_scale.rds"]})
	if err != nil {
		t.Fatal(err)
	}
	pkgC, err := BuildPackage("scaled", map[string]string{"jam_scaled.ams": jamSrc, "ried_scale.rds": mkRied(100)["ried_scale.rds"]})
	if err != nil {
		t.Fatal(err)
	}
	pkgA, err := BuildPackage("scaled", map[string]string{"jam_scaled.ams": jamSrc, "ried_scale.rds": mkRied(1)["ried_scale.rds"]})
	if err != nil {
		t.Fatal(err)
	}

	m := newPair(t, 3, mailbox.Geometry{Banks: 1, Slots: 2, FrameSize: 512}, false, quickCfg(), 0)
	b, d := m.Node(1), m.Node(2)
	for i, pkg := range []*Package{pkgA, pkgB, pkgC} {
		if _, err := m.Node(i).InstallPackage(pkg); err != nil {
			t.Fatal(err)
		}
	}
	chB, err := m.Channel(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	chC, err := m.Channel(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	var retB, retC uint64
	b.OnExecuted = func(r uint64, _ sim.Duration, err error) {
		if err != nil {
			t.Errorf("B: %v", err)
		}
		retB = r
	}
	d.OnExecuted = func(r uint64, _ sim.Duration, err error) {
		if err != nil {
			t.Errorf("C: %v", err)
		}
		retC = r
	}
	// The same jam, injected to two processes, resolves tc_scale
	// differently on each.
	if err := chB.Handle("scaled", "jam_scaled").Inject([2]uint64{5, 0}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := chC.Handle("scaled", "jam_scaled").Inject([2]uint64{5, 0}, nil, nil); err != nil {
		t.Fatal(err)
	}
	m.Run()
	if retB != 50 || retC != 500 {
		t.Fatalf("overloading: B=%d (want 50) C=%d (want 500)", retB, retC)
	}
}

func TestRiedHotSwapChangesBehaviour(t *testing.T) {
	// Remote linking update: loading a new ried version rebinds the name
	// and subsequent messages see the new behaviour, without restarting.
	jamSrc := `
.extern tc_op
.global jam_op
jam_op:
    addi sp, sp, -16
    st   lr, [sp+0]
    ld   r0, [r0+0]
    callg tc_op
    ld   lr, [sp+0]
    addi sp, sp, 16
    ret
`
	v1 := `
.text
.global tc_op
tc_op:
    addi r0, r0, 1
    ret
`
	v2 := `
.text
.global tc_op
tc_op:
    muli r0, r0, 2
    ret
`
	pkg, err := BuildPackage("ops", map[string]string{"jam_op.ams": jamSrc, "ried_op.rds": v1})
	if err != nil {
		t.Fatal(err)
	}
	m := newPair(t, 2, mailbox.Geometry{Banks: 1, Slots: 2, FrameSize: 512}, false, quickCfg(), 0)
	if err := m.InstallPackage(pkg); err != nil {
		t.Fatal(err)
	}
	ch, err := m.Channel(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := m.Node(1)
	var results []uint64
	b.OnExecuted = func(r uint64, _ sim.Duration, err error) {
		if err != nil {
			t.Errorf("exec: %v", err)
		}
		results = append(results, r)
	}
	if err := ch.Handle("ops", "jam_op").Inject([2]uint64{10, 0}, nil, nil); err != nil {
		t.Fatal(err)
	}
	m.Run()

	// Hot-swap: build and install v2 of the ried, replacing the binding.
	pkg2, err := BuildPackage("ops2", map[string]string{"ried_op.rds": v2})
	if err != nil {
		t.Fatal(err)
	}
	riedV2, _ := pkg2.Element("ried_op")
	if _, err := b.InstallRied(riedV2.Ried, true); err != nil {
		t.Fatal(err)
	}
	m.RefreshNames(1)

	if err := ch.Handle("ops", "jam_op").Inject([2]uint64{10, 0}, nil, nil); err != nil {
		t.Fatal(err)
	}
	m.Run()
	if len(results) != 2 || results[0] != 11 || results[1] != 20 {
		t.Fatalf("hot swap results %v, want [11 20]", results)
	}
}

func TestTimingPathProducesCosts(t *testing.T) {
	cfg := DefaultNodeConfig()
	cfg.MemBytes = 32 << 20
	bn := newBench(t, 2048, cfg, 0)
	var cost sim.Duration
	bn.b.OnExecuted = func(_ uint64, c sim.Duration, err error) {
		if err != nil {
			t.Errorf("exec: %v", err)
		}
		cost = c
	}
	if err := bn.ab.Handle("tcbench", "jam_iput").Inject([2]uint64{7, 0}, make([]byte, 256), nil); err != nil {
		t.Fatal(err)
	}
	bn.m.Run()
	if cost <= 0 {
		t.Fatal("no execution cost recorded")
	}
	if bn.b.Counter.Total() <= 0 {
		t.Fatal("no cycles accounted")
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var digits []byte
	for v > 0 {
		digits = append([]byte{byte('0' + v%10)}, digits...)
		v /= 10
	}
	return string(digits)
}
