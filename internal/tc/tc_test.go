package tc

import (
	"errors"
	"strings"
	"testing"

	"twochains/internal/core"
	"twochains/internal/fabric"
	"twochains/internal/mailbox"
	"twochains/internal/mem"
	"twochains/internal/sim"
)

// quickSystem builds a small untimed system with the bench package
// installed.
func quickSystem(t *testing.T, nodes int, opts ...SystemOpt) *System {
	t.Helper()
	opts = append([]SystemOpt{WithTiming(false)}, opts...)
	sys, err := NewSystem(nodes, opts...)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := core.BuildBenchPackage()
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.InstallPackage(pkg); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestFuncUnknownPackage(t *testing.T) {
	sys := quickSystem(t, 2)
	if _, err := sys.Func(0, "nope", "jam_iput"); err == nil {
		t.Fatal("Func with unknown package did not fail")
	} else if !strings.Contains(err.Error(), "nope") {
		t.Fatalf("error does not name the package: %v", err)
	}
}

func TestFuncUnknownElement(t *testing.T) {
	sys := quickSystem(t, 2)
	if _, err := sys.Func(0, "tcbench", "jam_missing"); err == nil {
		t.Fatal("Func with unknown element did not fail")
	}
	// A ried is not callable: handles are for jams only.
	if _, err := sys.Func(0, "tcbench", "ried_kvbench"); err == nil {
		t.Fatal("Func on a ried element did not fail")
	}
	if _, err := sys.Func(7, "tcbench", "jam_iput"); err == nil {
		t.Fatal("Func with out-of-range source did not fail")
	}
}

func TestDoubleInstallPackage(t *testing.T) {
	sys := quickSystem(t, 2)
	pkg, err := core.BuildBenchPackage()
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.InstallPackage(pkg); err == nil {
		t.Fatal("double InstallPackage did not fail")
	} else if !strings.Contains(err.Error(), "already installed") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestCallAfterTeardown(t *testing.T) {
	sys := quickSystem(t, 3)
	fn, err := sys.Func(0, "tcbench", "jam_iput")
	if err != nil {
		t.Fatal(err)
	}
	// Prove the path works before teardown.
	if _, err := fn.Call(1, [2]uint64{1, 0}).Await(); err != nil {
		t.Fatalf("call before teardown: %v", err)
	}
	sys.Node(1).Teardown()
	fu := fn.Call(1, [2]uint64{2, 0})
	res, ok := fu.Result()
	if !ok || res.Err == nil {
		t.Fatalf("call after teardown did not fail fast: resolved=%v err=%v", ok, res.Err)
	}
	if !strings.Contains(res.Err.Error(), "torn down") {
		t.Fatalf("unexpected error: %v", res.Err)
	}
	if _, err := fu.Await(); err == nil {
		t.Fatal("Await on a failed future returned nil error")
	}
	// Data frames honor teardown too.
	if res, err := sys.SendData(0, 1, []byte("x")).Await(); err == nil {
		t.Fatalf("SendData after teardown did not fail: %+v", res)
	}
	// Other destinations are unaffected.
	if _, err := fn.Call(2, [2]uint64{3, 0}).Await(); err != nil {
		t.Fatalf("call to healthy node after peer teardown: %v", err)
	}
	// A channel that was never connected must not arm a fresh mailbox
	// region on the torn-down node.
	if _, err := sys.Channel(2, 1); err == nil {
		t.Fatal("new channel to torn-down node did not fail")
	}
}

func TestBurstEmptyBatchSendsNothing(t *testing.T) {
	sys := quickSystem(t, 2)
	fn, err := sys.Func(0, "tcbench", "jam_iput")
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range [][][2]uint64{nil, {}} {
		fu := fn.Call(1, [2]uint64{1, 0}, Burst(batch))
		res, ok := fu.Result()
		if !ok || res.Err != nil || res.N != 0 {
			t.Fatalf("empty burst: resolved=%v %+v", ok, res)
		}
	}
	sys.Run()
	if st := sys.Stats(); st.Sent != 0 {
		t.Fatalf("empty bursts sent %d messages", st.Sent)
	}
}

func TestBurstSpanningCreditStall(t *testing.T) {
	// One bank of two slots: an 8-message burst must wrap the region and
	// stall on the bank credit at least once; the receiver's drain
	// returns the flag and the stalled remainder goes out one by one.
	sys := quickSystem(t, 2,
		WithConfig(func(c *core.MeshConfig) {
			c.Geometry = mailbox.Geometry{Banks: 1, Slots: 2, FrameSize: 2048}
			c.Credits = true
		}))
	execd := 0
	sys.Node(1).OnExecuted = func(ret uint64, _ sim.Duration, err error) {
		if err != nil {
			t.Fatalf("handler: %v", err)
		}
		execd++
	}
	fn, err := sys.Func(0, "tcbench", "jam_iput")
	if err != nil {
		t.Fatal(err)
	}
	batch := make([][2]uint64, 8)
	for i := range batch {
		batch[i] = [2]uint64{uint64(i + 1), 0}
	}
	res, err := fn.Call(1, batch[0], Burst(batch), Payload([]byte("p"))).Await()
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 8 {
		t.Fatalf("delivered %d of 8", res.N)
	}
	sys.Run() // drain executions past the last delivery
	if execd != 8 {
		t.Fatalf("executed %d of 8", execd)
	}
	ch, err := sys.Channel(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Sender.CreditStalls == 0 {
		t.Fatal("burst never stalled on credits")
	}
}

func TestFutureDoneAfterResolve(t *testing.T) {
	sys := quickSystem(t, 2)
	fn, err := sys.Func(0, "tcbench", "jam_iput")
	if err != nil {
		t.Fatal(err)
	}
	fu := fn.Call(1, [2]uint64{1, 0})
	if _, ok := fu.Result(); ok {
		t.Fatal("future resolved before the simulation ran")
	}
	first := 0
	fu.Done(func(Result) { first++ })
	if _, err := fu.Await(); err != nil {
		t.Fatal(err)
	}
	late := 0
	fu.Done(func(r Result) {
		late++
		if r.N != 1 || r.Err != nil {
			t.Errorf("bad result in late callback: %+v", r)
		}
	})
	if first != 1 || late != 1 {
		t.Fatalf("callbacks fired %d/%d times, want 1/1", first, late)
	}
	// The call was injected: its receiver mapped the shipped jam once.
	sys.Run()
	if st := sys.Stats(); st.SlotHits+st.SlotMisses != 1 {
		t.Errorf("injected call mapped jams %d/%d times, want once", st.SlotHits, st.SlotMisses)
	}
}

func TestLocalCallResolvesReceiverIDs(t *testing.T) {
	sys := quickSystem(t, 2)
	fn, err := sys.Func(0, "tcbench", "jam_sssum")
	if err != nil {
		t.Fatal(err)
	}
	got := uint64(0)
	sys.Node(1).OnExecuted = func(ret uint64, _ sim.Duration, err error) {
		if err != nil {
			t.Fatalf("handler: %v", err)
		}
		got = ret
	}
	if _, err := fn.Call(1, [2]uint64{}, Local(), Payload([]byte{1, 2, 3, 4, 5, 6, 7, 8})).Await(); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if got == 0 {
		t.Fatal("local function did not execute")
	}
	// The call was local: no jam travelled, so the receiver mapped none.
	if st := sys.Stats(); st.SlotHits+st.SlotMisses != 0 {
		t.Fatalf("local call mapped jams %d/%d times", st.SlotHits, st.SlotMisses)
	}
}

func TestIdealBackend(t *testing.T) {
	sys := quickSystem(t, 2, WithBackend("ideal"))
	fn, err := sys.Func(0, "tcbench", "jam_iput")
	if err != nil {
		t.Fatal(err)
	}
	execd := false
	sys.Node(1).OnExecuted = func(ret uint64, _ sim.Duration, err error) {
		if err != nil {
			t.Fatalf("handler: %v", err)
		}
		execd = true
	}
	res, err := fn.Call(1, [2]uint64{11, 0}, Payload([]byte("ideal"))).Await()
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 {
		t.Fatal("no delivery time on the ideal backend")
	}
	sys.Run()
	if !execd {
		t.Fatal("injected function did not execute on the ideal backend")
	}
}

// TestUnknownBackend: an unregistered backend name is an error from
// NewSystem, never a panic — also when it is the chaos wrapper's inner —
// and so is every malformed chaos configuration.
func TestUnknownBackend(t *testing.T) {
	withChaos := func(cc fabric.ChaosConfig) SystemOpt {
		return WithConfig(func(c *core.MeshConfig) { c.Chaos = &cc })
	}
	for name, opt := range map[string]SystemOpt{
		"backend":            WithBackend("warp-drive"),
		"chaos inner":        withChaos(fabric.ChaosConfig{Inner: "warp-drive"}),
		"bare chaos":         WithBackend("chaos"),
		"chaos wraps chaos":  withChaos(fabric.ChaosConfig{Inner: "chaos"}),
		"chaos min over max": withChaos(fabric.ChaosConfig{MinDelay: 2 * sim.Nanosecond, MaxDelay: sim.Nanosecond}),
		"chaos over cap":     withChaos(fabric.ChaosConfig{MaxDelay: fabric.MaxChaosDelay + 1}),
	} {
		if _, err := NewSystem(2, opt); err == nil {
			t.Errorf("%s: NewSystem did not fail", name)
		}
	}
}

func TestSystemNeedsTwoNodes(t *testing.T) {
	if _, err := NewSystem(1); err == nil {
		t.Fatal("1-node system did not fail")
	}
}

// TestSystemClose: Close hands every node's backing to the pool exactly
// once however often it is called, and afterwards node memory is
// unmapped — a read is a typed out-of-bounds fault and a Call fails at
// issue, neither panics nor touches bytes the pool now owns.
func TestSystemClose(t *testing.T) {
	sys := quickSystem(t, 3)
	fn, err := sys.Func(0, "tcbench", "jam_iput")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fn.Call(1, [2]uint64{7, 0}, Payload([]byte("payload"))).Await(); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	va := sys.Node(1).AS.Regions()[0].Addr

	before := mem.BackingPoolStats().Released
	sys.Close()
	sys.Close()
	if n := mem.BackingPoolStats().Released - before; n != 3 {
		t.Errorf("closing a 3-node system twice released %d backings, want 3", n)
	}
	for i := 0; i < sys.Nodes(); i++ {
		_, err := sys.Node(i).AS.ReadU64(va)
		var f *mem.Fault
		if !errors.As(err, &f) || !f.OOB {
			t.Errorf("node %d read after Close: %v, want an out-of-bounds fault", i, err)
		}
	}
	if _, err := fn.Call(1, [2]uint64{8, 0}, Payload([]byte("payload"))).Await(); err == nil {
		t.Error("a Call on a closed system succeeded")
	}
	if _, err := fn.Call(2, [2]uint64{8, 0}).Await(); err == nil {
		t.Error("a Call that needs a fresh channel on a closed system succeeded")
	}
}
