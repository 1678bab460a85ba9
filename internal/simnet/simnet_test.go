package simnet

import (
	"strings"
	"testing"

	"twochains/internal/fabric"
	"twochains/internal/mem"
	"twochains/internal/memsim"
	"twochains/internal/model"
	"twochains/internal/sim"
)

type host struct {
	as  *mem.AddressSpace
	nic *NIC
	buf uint64
	key RKey
}

func twoHosts(t *testing.T, cfg Config, access fabric.Access) (*sim.Engine, *host, *host) {
	t.Helper()
	eng := sim.NewEngine()
	f := NewFabric(eng, cfg)
	mk := func() *host {
		h := &host{as: mem.NewAddressSpace(1 << 20)}
		h.nic = f.AttachNIC(h.as, nil)
		var err error
		h.buf, err = h.as.AllocPages("buf", 64*1024, mem.PermRW)
		if err != nil {
			t.Fatal(err)
		}
		h.key, err = h.nic.RegisterMemory(h.buf, 64*1024, access)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	return eng, mk(), mk()
}

func TestPutDeliversBytes(t *testing.T) {
	eng, a, b := twoHosts(t, DefaultConfig(), RemoteWrite)
	msg := []byte("injected function payload")
	if err := a.as.WriteBytes(a.buf, msg); err != nil {
		t.Fatal(err)
	}
	var res PutResult
	a.nic.Put(b.nic, a.buf, b.buf, len(msg), b.key, func(r PutResult) { res = r })
	eng.Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	got, _ := b.as.ReadBytes(b.buf, len(msg))
	if string(got) != string(msg) {
		t.Fatalf("delivered %q", got)
	}
	if res.Delivered <= 0 {
		t.Fatal("no delivery time")
	}
}

func TestPutLatencyModel(t *testing.T) {
	eng, a, b := twoHosts(t, DefaultConfig(), RemoteWrite)
	var small, large sim.Time
	a.nic.Put(b.nic, a.buf, b.buf, 64, b.key, func(r PutResult) { small = r.Delivered })
	eng.Run()
	eng2, c, d := twoHosts(t, DefaultConfig(), RemoteWrite)
	c.nic.Put(d.nic, c.buf, d.buf, 32768, d.key, func(r PutResult) { large = r.Delivered })
	eng2.Run()
	if small <= 0 || large <= small {
		t.Fatalf("latencies: small=%v large=%v", small, large)
	}
	// A 64B put should be near the base latency.
	base := sim.Time(0).Add(model.PutBaseLat)
	if small < base || small > base.Add(sim.FromNanos(200)) {
		t.Fatalf("64B delivery at %v, base %v", small, base)
	}
	// 32KB is dominated by serialization: ~1.36us at 24 GB/s.
	wire := model.WireTime(32768)
	if large < sim.Time(0).Add(wire) {
		t.Fatalf("32KB delivered before wire time: %v < %v", large, wire)
	}
}

func TestInvalidRkeyRejected(t *testing.T) {
	eng, a, b := twoHosts(t, DefaultConfig(), RemoteWrite)
	if err := a.as.WriteBytes(a.buf, []byte("rejected")); err != nil {
		t.Fatal(err)
	}
	var res PutResult
	a.nic.Put(b.nic, a.buf, b.buf, 64, b.key+1, func(r PutResult) { res = r })
	eng.Run()
	if res.Err == nil || !strings.Contains(res.Err.Error(), "rkey") {
		t.Fatalf("err = %v", res.Err)
	}
	// Nothing landed.
	if got, _ := b.as.ReadBytes(b.buf, 8); string(got) != string(make([]byte, 8)) {
		t.Fatalf("rejected put landed %q", got)
	}
}

func TestOutOfRegistrationRejected(t *testing.T) {
	eng, a, b := twoHosts(t, DefaultConfig(), RemoteWrite)
	var res PutResult
	a.nic.Put(b.nic, a.buf, b.buf+64*1024-16, 64, b.key, func(r PutResult) { res = r })
	eng.Run()
	if res.Err == nil || !strings.Contains(res.Err.Error(), "outside registration") {
		t.Fatalf("err = %v", res.Err)
	}
}

func TestPermissionEnforced(t *testing.T) {
	eng, a, b := twoHosts(t, DefaultConfig(), fabric.RemoteRead) // write not granted
	var res PutResult
	a.nic.Put(b.nic, a.buf, b.buf, 64, b.key, func(r PutResult) { res = r })
	eng.Run()
	if res.Err == nil || !strings.Contains(res.Err.Error(), "permission") {
		t.Fatalf("err = %v", res.Err)
	}
}

func TestOrderedDelivery(t *testing.T) {
	eng, a, b := twoHosts(t, DefaultConfig(), RemoteWrite)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		a.nic.Put(b.nic, a.buf, b.buf+uint64(i*128), 128, b.key, func(r PutResult) {
			order = append(order, i)
		})
	}
	eng.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("deliveries reordered: %v", order)
		}
	}
}

func TestUnorderedFenceRestoresOrder(t *testing.T) {
	cfg := Config{Ordered: false, Seed: 7}
	eng, a, b := twoHosts(t, cfg, RemoteWrite)
	dataDone := sim.Time(0)
	sigDone := sim.Time(0)
	// Data put, then fence, then signal put: the signal must never arrive
	// before the data even on an unordered fabric.
	a.nic.Put(b.nic, a.buf, b.buf, 4096, b.key, func(r PutResult) { dataDone = r.Delivered })
	a.nic.Fence(b.nic)
	a.nic.Put(b.nic, a.buf, b.buf+8192, 8, b.key, func(r PutResult) { sigDone = r.Delivered })
	eng.Run()
	if sigDone < dataDone {
		t.Fatalf("signal (%v) arrived before data (%v) despite fence", sigDone, dataDone)
	}
}

func TestUnorderedCanReorderWithoutFence(t *testing.T) {
	// Sanity for the ablation: without a fence, an unordered fabric does
	// sometimes reorder a large put and a trailing small put.
	reordered := false
	for seed := uint64(1); seed <= 40 && !reordered; seed++ {
		cfg := Config{Ordered: false, Seed: seed}
		eng, a, b := twoHosts(t, cfg, RemoteWrite)
		var dataAt, sigAt sim.Time
		a.nic.Put(b.nic, a.buf, b.buf, 8192, b.key, func(r PutResult) { dataAt = r.Delivered })
		a.nic.Put(b.nic, a.buf, b.buf+16384, 8, b.key, func(r PutResult) { sigAt = r.Delivered })
		eng.Run()
		if sigAt < dataAt {
			reordered = true
		}
	}
	if !reordered {
		t.Fatal("unordered fabric never reordered in 40 seeds")
	}
}

func TestDeliveryHookFires(t *testing.T) {
	eng, a, b := twoHosts(t, DefaultConfig(), RemoteWrite)
	var hookVA uint64
	var hookSize int
	b.nic.AddDeliveryHookRange(b.buf, 64*1024, func(va uint64, size int) { hookVA, hookSize = va, size })
	a.nic.Put(b.nic, a.buf, b.buf+256, 128, b.key, nil)
	eng.Run()
	if hookVA != b.buf+256 || hookSize != 128 {
		t.Fatalf("hook got (0x%x, %d)", hookVA, hookSize)
	}
}

func TestStashOnDelivery(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng, DefaultConfig())
	asA := mem.NewAddressSpace(1 << 20)
	nicA := f.AttachNIC(asA, nil)
	bufA, _ := asA.AllocPages("a", 4096, mem.PermRW)

	asB := mem.NewAddressSpace(1 << 20)
	hierB := memsim.New(memsim.DefaultConfig())
	nicB := f.AttachNIC(asB, hierB)
	bufB, _ := asB.AllocPages("b", 4096, mem.PermRW)
	keyB, _ := nicB.RegisterMemory(bufB, 4096, RemoteWrite)

	nicA.Put(nicB, bufA, bufB, 512, keyB, nil)
	eng.Run()
	if lvl := hierB.Contains(bufB); lvl != "LLC" {
		t.Fatalf("delivered line in %s, want LLC (stashing on)", lvl)
	}
}

func TestPipelinedThroughputBoundedByWire(t *testing.T) {
	eng, a, b := twoHosts(t, DefaultConfig(), RemoteWrite)
	const n = 100
	const size = 16384
	var last sim.Time
	for i := 0; i < n; i++ {
		a.nic.Put(b.nic, a.buf, b.buf, size, b.key, func(r PutResult) {
			if r.Delivered > last {
				last = r.Delivered
			}
		})
	}
	eng.Run()
	elapsed := sim.Duration(last)
	wireFloor := sim.Duration(n) * model.WireTime(size)
	if elapsed < wireFloor {
		t.Fatalf("elapsed %v beats wire serialization %v", elapsed, wireFloor)
	}
	// But pipelining means we pay base latency only ~once, not n times.
	if elapsed > wireFloor+sim.Duration(4)*model.PutBaseLat {
		t.Fatalf("no pipelining: %v >> %v", elapsed, wireFloor)
	}
}

// TestRejectedPutLandsNothing: of two puts, the one with a wrong rkey is
// reported failed and lands no byte; the other lands.
func TestRejectedPutLandsNothing(t *testing.T) {
	eng, a, b := twoHosts(t, DefaultConfig(), RemoteWrite)
	if err := a.as.WriteBytes(a.buf, []byte("landed")); err != nil {
		t.Fatal(err)
	}
	var failed int
	done := func(r PutResult) {
		if r.Err != nil {
			failed++
		}
	}
	a.nic.Put(b.nic, a.buf, b.buf, 64, b.key, done)
	a.nic.Put(b.nic, a.buf, b.buf+128, 64, b.key+1, done) // rejected
	eng.Run()
	if failed != 1 {
		t.Fatalf("%d puts failed, want 1", failed)
	}
	if got, _ := b.as.ReadBytes(b.buf, 6); string(got) != "landed" {
		t.Fatalf("delivered put landed %q", got)
	}
	if got, _ := b.as.ReadBytes(b.buf+128, 6); string(got) != string(make([]byte, 6)) {
		t.Fatalf("rejected put landed %q", got)
	}
}

func TestRegisterErrors(t *testing.T) {
	eng, a, _ := twoHosts(t, DefaultConfig(), RemoteWrite)
	_ = eng
	if _, err := a.nic.RegisterMemory(a.buf, 0, RemoteWrite); err == nil {
		t.Fatal("zero-size registration accepted")
	}
	if _, err := a.nic.RegisterMemory(0x10, 64, RemoteWrite); err == nil {
		t.Fatal("unmapped registration accepted")
	}
}

// TestCrossDomainUplink: a put between fabric shards pays the spine hop
// and serializes through the shared uplink; same-shard traffic does not.
func TestCrossDomainUplink(t *testing.T) {
	lat := func(assign func(f *Fabric, a, b *NIC)) sim.Time {
		eng, a, b := twoHosts(t, DefaultConfig(), RemoteWrite)
		assign(a.nic.fabric, a.nic, b.nic)
		var done sim.Time
		a.nic.Put(b.nic, a.buf, b.buf, 256, b.key, func(r PutResult) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			done = r.Delivered
		})
		eng.Run()
		return done
	}
	intra := lat(func(f *Fabric, a, b *NIC) {})
	cross := lat(func(f *Fabric, a, b *NIC) {
		f.AssignDomain(a, 0)
		f.AssignDomain(b, 1)
	})
	if cross <= intra {
		t.Fatalf("cross-domain %v not slower than intra-domain %v", cross, intra)
	}
	if delta := cross.Sub(intra); delta < model.UplinkHopLat {
		t.Fatalf("cross-domain delta %v below hop latency %v", delta, model.UplinkHopLat)
	}

	// Two cross-domain puts from different senders contend on the shared
	// uplink: the second delivery is pushed out by the first's
	// serialization.
	eng := sim.NewEngine()
	f := NewFabric(eng, DefaultConfig())
	var hosts []*host
	for i := 0; i < 3; i++ {
		h := &host{as: mem.NewAddressSpace(1 << 20)}
		h.nic = f.AttachNIC(h.as, nil)
		var err error
		h.buf, err = h.as.AllocPages("buf", 64*1024, mem.PermRW)
		if err != nil {
			t.Fatal(err)
		}
		h.key, err = h.nic.RegisterMemory(h.buf, 64*1024, RemoteWrite)
		if err != nil {
			t.Fatal(err)
		}
		hosts = append(hosts, h)
	}
	f.AssignDomain(hosts[0].nic, 0)
	f.AssignDomain(hosts[1].nic, 0)
	f.AssignDomain(hosts[2].nic, 1)
	const size = 32768
	var t1, t2 sim.Time
	hosts[0].nic.Put(hosts[2].nic, hosts[0].buf, hosts[2].buf, size, hosts[2].key,
		func(r PutResult) { t1 = r.Delivered })
	hosts[1].nic.Put(hosts[2].nic, hosts[1].buf, hosts[2].buf, size, hosts[2].key,
		func(r PutResult) { t2 = r.Delivered })
	eng.Run()
	later := t2
	if t1 > t2 {
		later = t1
	}
	if later.Sub(sim.Time(0)) < sim.Duration(2)*model.WireTime(size) {
		t.Fatalf("contended uplink delivery %v shows no serialization (wire %v)",
			later, model.WireTime(size))
	}
}
