package ucx

import (
	"testing"

	"twochains/internal/fabric"
	"twochains/internal/mem"
	"twochains/internal/model"
	"twochains/internal/sim"
	"twochains/internal/simnet"
)

type pair struct {
	eng  *sim.Engine
	a, b *Worker
	ab   *Endpoint
	aBuf uint64
	bBuf uint64
	bKey fabric.RKey
}

func newPair(t *testing.T) *pair {
	t.Helper()
	eng := sim.NewEngine()
	fab := simnet.NewFabric(eng, simnet.DefaultConfig())
	p := &pair{eng: eng}
	asA := mem.NewAddressSpace(2 << 20)
	asB := mem.NewAddressSpace(2 << 20)
	p.a = NewWorker(fab, asA, nil)
	p.b = NewWorker(fab, asB, nil)
	p.ab = p.a.Connect(p.b)
	var err error
	p.aBuf, err = asA.AllocPages("a", 256*1024, mem.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	p.bBuf, err = asB.AllocPages("b", 256*1024, mem.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	p.bKey, err = p.b.RegisterMemory(p.bBuf, 256*1024, simnet.RemoteWrite|fabric.RemoteRead)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPutDataArrives(t *testing.T) {
	p := newPair(t)
	want := []byte("standard ucx put")
	if err := p.a.AS.WriteBytes(p.aBuf, want); err != nil {
		t.Fatal(err)
	}
	var gotErr error
	p.ab.Put(p.aBuf, p.bBuf, len(want), p.bKey, func(err error, _ sim.Time) { gotErr = err })
	p.eng.Run()
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	got, _ := p.b.AS.ReadBytes(p.bBuf, len(want))
	if string(got) != string(want) {
		t.Fatalf("got %q", got)
	}
}

func TestPutErrorPropagates(t *testing.T) {
	p := newPair(t)
	var gotErr error
	p.ab.Put(p.aBuf, p.bBuf, 64, p.bKey+1, func(err error, _ sim.Time) { gotErr = err })
	p.eng.Run()
	if gotErr == nil {
		t.Fatal("bad rkey not reported")
	}
}

// TestPutCounters: every put a worker hands its NIC counts once, with
// its bytes, on each path — a fenced thin put is two — and a put the
// target refuses counts too.
func TestPutCounters(t *testing.T) {
	p := newPair(t)
	p.ab.Put(p.aBuf, p.bBuf, 64, p.bKey, nil)
	p.ab.Put(p.aBuf, p.bBuf, 32, p.bKey+1, nil) // refused
	p.ab.PutThin(&ThinPut{SrcVA: p.aBuf, DstVA: p.bBuf, Size: 128, Key: p.bKey})
	p.ab.PutThinFenced(&ThinPut{SrcVA: p.aBuf, DstVA: p.bBuf, Size: 256, Key: p.bKey}, 8)
	p.eng.Run()
	if p.a.Puts != 5 || p.a.PutBytes != 64+32+128+256+8 {
		t.Fatalf("puts %d, bytes %d; want 5 and %d", p.a.Puts, p.a.PutBytes, 64+32+128+256+8)
	}
	if p.b.Puts != 0 {
		t.Fatalf("the target counted %d puts", p.b.Puts)
	}
}

// TestThinPutRecordReposted: one ThinPut, re-posted from its own
// OnDelivered, carries a run of puts to consecutive destinations. Every
// put's bytes land, and the worker counts each put once with its bytes,
// at a short-tier and at an rndv-tier size.
func TestThinPutRecordReposted(t *testing.T) {
	for _, size := range []int{64, 16384} {
		p := newPair(t)
		const n = 12
		src := make([]byte, n*size)
		for i := range src {
			src[i] = byte(i*7 + i/size)
		}
		if err := p.a.AS.WriteBytes(p.aBuf, src); err != nil {
			t.Fatal(err)
		}
		posts := 1
		rec := &ThinPut{SrcVA: p.aBuf, DstVA: p.bBuf, Size: size, Key: p.bKey}
		rec.OnDelivered = func(r fabric.PutResult) {
			if r.Err != nil {
				t.Fatalf("%dB put %d: %v", size, posts, r.Err)
			}
			if posts == n {
				return
			}
			posts++
			rec.SrcVA += uint64(size)
			rec.DstVA += uint64(size)
			p.ab.PutThin(rec)
		}
		p.ab.PutThin(rec)
		p.eng.Run()
		if posts != n {
			t.Fatalf("%dB: %d puts posted, want %d", size, posts, n)
		}
		got, err := p.b.AS.ReadBytes(p.bBuf, n*size)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(src) {
			t.Fatalf("%dB: landed bytes differ from the source", size)
		}
		if p.a.Puts != n || p.a.PutBytes != uint64(n*size) {
			t.Fatalf("%dB: puts %d, bytes %d; want %d and %d", size, p.a.Puts, p.a.PutBytes, n, n*size)
		}
	}
}

// TestThinPutErrors: a thin put the target refuses reports the error
// through OnDelivered, and a fenced thin put calls OnDelivered exactly
// once, after both its body and its signal have landed.
func TestThinPutErrors(t *testing.T) {
	p := newPair(t)
	var gotErr error
	calls := 0
	p.ab.PutThin(&ThinPut{SrcVA: p.aBuf, DstVA: p.bBuf, Size: 64, Key: p.bKey + 1,
		OnDelivered: func(r fabric.PutResult) { gotErr, calls = r.Err, calls+1 }})
	p.eng.Run()
	if gotErr == nil || calls != 1 {
		t.Fatalf("bad rkey: err %v after %d calls, want one call with an error", gotErr, calls)
	}

	p = newPair(t)
	want := []byte("fenced body then signal.")
	if err := p.a.AS.WriteBytes(p.aBuf, want); err != nil {
		t.Fatal(err)
	}
	calls = 0
	p.ab.PutThinFenced(&ThinPut{SrcVA: p.aBuf, DstVA: p.bBuf, Size: len(want) - 8, Key: p.bKey,
		OnDelivered: func(r fabric.PutResult) {
			if r.Err != nil {
				t.Errorf("fenced put: %v", r.Err)
			}
			calls++
		}}, 8)
	p.eng.Run()
	if calls != 1 {
		t.Fatalf("fenced put: OnDelivered called %d times, want 1", calls)
	}
	got, _ := p.b.AS.ReadBytes(p.bBuf, len(want))
	if string(got) != string(want) {
		t.Fatalf("fenced put landed %q, want %q", got, want)
	}
}

func TestThinVsStandardMatchesPaperShape(t *testing.T) {
	// Fig. 5: single-message latency of the two paths is within a couple
	// of percent of each other. Fig. 6: the thin path's pipelined
	// throughput is clearly higher because it skips flow-control and
	// completion software.
	timeOne := func(thin bool, size int) sim.Duration {
		p := newPair(t)
		var done sim.Time
		if thin {
			p.ab.PutThin(&ThinPut{SrcVA: p.aBuf, DstVA: p.bBuf, Size: size, Key: p.bKey,
				OnDelivered: func(r fabric.PutResult) { done = r.Delivered }})
		} else {
			p.ab.Put(p.aBuf, p.bBuf, size, p.bKey, func(_ error, d sim.Time) { done = d })
		}
		p.eng.Run()
		return sim.Duration(done)
	}
	for _, size := range []int{256, 4096} {
		thin, std := timeOne(true, size), timeOne(false, size)
		ratio := float64(thin) / float64(std)
		if ratio < 0.95 || ratio > 1.05 {
			t.Fatalf("size %d: single-shot thin %v vs std %v (ratio %.3f), want within 5%%",
				size, thin, std, ratio)
		}
	}

	// Thin path: frames stream into preregistered mailboxes back to back.
	thinStream := func(size, n int) sim.Duration {
		p := newPair(t)
		var last sim.Time
		for i := 0; i < n; i++ {
			p.ab.PutThin(&ThinPut{SrcVA: p.aBuf, DstVA: p.bBuf, Size: size, Key: p.bKey,
				OnDelivered: func(r fabric.PutResult) {
					if r.Delivered > last {
						last = r.Delivered
					}
				}})
		}
		p.eng.Run()
		return sim.Duration(last)
	}
	// Standard path as the Fig. 6 baseline drives it: each put's buffer is
	// reused, so the next put issues only after the completion callback.
	stdBlocking := func(size, n int) sim.Duration {
		p := newPair(t)
		var last sim.Time
		var issue func(i int)
		issue = func(i int) {
			if i == n {
				return
			}
			p.ab.Put(p.aBuf, p.bBuf, size, p.bKey, func(_ error, d sim.Time) {
				if d > last {
					last = d
				}
				issue(i + 1)
			})
		}
		issue(0)
		p.eng.Run()
		return sim.Duration(last)
	}
	for _, size := range []int{256, 4096, 32768} {
		thin, std := thinStream(size, 200), stdBlocking(size, 200)
		speedup := float64(std) / float64(thin)
		if speedup < 1.3 {
			t.Fatalf("size %d: bandwidth speedup %.2fx, want > 1.3x (paper: 1.79-4.48x)",
				size, speedup)
		}
		if speedup > 8 {
			t.Fatalf("size %d: bandwidth speedup %.2fx implausibly large", size, speedup)
		}
	}
}

func TestRendezvousHandshakePenalty(t *testing.T) {
	// A standard put just over the rndv threshold pays an extra RTT.
	timeStd := func(size int) sim.Duration {
		p := newPair(t)
		var done sim.Time
		p.ab.Put(p.aBuf, p.bBuf, size, p.bKey, func(_ error, d sim.Time) { done = d })
		p.eng.Run()
		return sim.Duration(done)
	}
	below, above := timeStd(8000), timeStd(8400)
	delta := above - below
	extraWire := model.WireTime(8400) - model.WireTime(8000)
	if delta < 2*model.PutBaseLat {
		t.Fatalf("rndv delta %v < handshake RTT %v", delta, 2*model.PutBaseLat)
	}
	if delta > 2*model.PutBaseLat+extraWire+sim.FromNanos(400) {
		t.Fatalf("rndv delta %v implausibly large", delta)
	}
}

func TestWindowLimitsInflight(t *testing.T) {
	p := newPair(t)
	issued := 0
	for i := 0; i < DefaultWindow*3; i++ {
		p.ab.Put(p.aBuf, p.bBuf, 64, p.bKey, func(err error, _ sim.Time) {
			if err != nil {
				t.Errorf("put %v", err)
			}
			issued++
		})
	}
	if p.ab.inflight != DefaultWindow {
		t.Fatalf("inflight = %d, want window %d", p.ab.inflight, DefaultWindow)
	}
	if len(p.ab.backlog) != DefaultWindow*2 {
		t.Fatalf("backlog = %d", len(p.ab.backlog))
	}
	p.eng.Run()
	if issued != DefaultWindow*3 {
		t.Fatalf("completed %d of %d", issued, DefaultWindow*3)
	}
	if p.ab.inflight != 0 || len(p.ab.backlog) != 0 {
		t.Fatal("window state not drained")
	}
}

func TestAmTierOverheadFollowsTiers(t *testing.T) {
	rndv := model.ProtoTiers[4].Overhead
	if got := model.TierFor(1 << 20).Overhead; got != rndv {
		t.Fatalf("huge AM frame overhead %v, want rndv tier %v", got, rndv)
	}
	if got := model.TierFor(64).Overhead; got != 0 {
		t.Fatalf("64B AM overhead %v, want 0 (short tier)", got)
	}
}

func TestThinRndvHandshakeOverlaps(t *testing.T) {
	// Pipelined rndv-tier thin puts stay wire-bound: handshakes overlap.
	const size = 16384
	const n = 50
	p := newPair(t)
	var last sim.Time
	for i := 0; i < n; i++ {
		p.ab.PutThin(&ThinPut{SrcVA: p.aBuf, DstVA: p.bBuf, Size: size, Key: p.bKey,
			OnDelivered: func(r fabric.PutResult) {
				if r.Delivered > last {
					last = r.Delivered
				}
			}})
	}
	p.eng.Run()
	wireFloor := sim.Duration(n) * model.WireTime(size)
	elapsed := sim.Duration(last)
	if elapsed > wireFloor+4*(2*model.PutBaseLat) {
		t.Fatalf("thin rndv stream not pipelined: %v vs wire floor %v", elapsed, wireFloor)
	}
}

func TestTierMonotonicity(t *testing.T) {
	// Each tier's overhead must be >= the previous: the "just over the
	// threshold" penalty of Fig. 7 depends on it.
	prev := sim.Duration(-1)
	for _, tier := range model.ProtoTiers {
		if tier.Overhead < prev {
			t.Fatalf("tier %s overhead %v below previous %v", tier.Name, tier.Overhead, prev)
		}
		prev = tier.Overhead
	}
}

// TestSenderOverheadAccessors: one thin put costs the sender less
// simulated CPU time than one standard put, read from the sender's CPU
// resource once the put has completed.
func TestSenderOverheadAccessors(t *testing.T) {
	busy := func(thin bool, size int) sim.Duration {
		p := newPair(t)
		if thin {
			p.ab.PutThin(&ThinPut{SrcVA: p.aBuf, DstVA: p.bBuf, Size: size, Key: p.bKey})
		} else {
			p.ab.Put(p.aBuf, p.bBuf, size, p.bKey, nil)
		}
		p.eng.Run()
		return p.a.CPU.BusyTime()
	}
	for _, size := range []int{64, 4096} {
		if thin, std := busy(true, size), busy(false, size); thin >= std {
			t.Fatalf("%dB: thin path CPU %v not below standard %v", size, thin, std)
		}
	}
}

func TestPipelinedStandardPutsRespectCPU(t *testing.T) {
	// With many small puts, the sender CPU software path becomes the
	// bottleneck; total elapsed must be at least n * per-message CPU cost.
	p := newPair(t)
	const n = 200
	var last sim.Time
	for i := 0; i < n; i++ {
		p.ab.Put(p.aBuf, p.bBuf, 64, p.bKey, func(_ error, d sim.Time) {
			if d > last {
				last = d
			}
		})
	}
	p.eng.Run()
	perMsg := model.UcxPostOverhead + model.UcxFlowOverhead + model.DoorbellLat + model.UcxCompOverhead
	floor := sim.Duration(n) * perMsg * 9 / 10
	if sim.Duration(last) < floor {
		t.Fatalf("elapsed %v under CPU floor %v", sim.Duration(last), floor)
	}
}
