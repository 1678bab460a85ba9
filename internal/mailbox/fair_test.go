package mailbox

import (
	"testing"

	"twochains/internal/cpusim"
	"twochains/internal/mem"
	"twochains/internal/sim"
	"twochains/internal/simnet"
	"twochains/internal/ucx"
)

// fairRig is a one-receiving-node fixture with two arbitrated inbound
// channels (classes 0 and 1) and a fixed per-message service cost.
type fairRig struct {
	eng   *sim.Engine
	arb   *FairArbiter
	sends [2]*Sender
	recvs [2]*Receiver
	order []int // class of each completion, in completion order
}

func newFairRig(t *testing.T, weights [2]int, svc sim.Duration) *fairRig {
	t.Helper()
	eng := sim.NewEngine()
	fab := simnet.NewFabric(eng, simnet.DefaultConfig())
	src := ucx.NewWorker(fab, mem.NewAddressSpace(8<<20), nil)
	dst := ucx.NewWorker(fab, mem.NewAddressSpace(8<<20), nil)
	g := Geometry{Banks: 4, Slots: 8, FrameSize: 256}

	fr := &fairRig{eng: eng, arb: NewFairArbiter()}
	handler := func(d *Delivery) (sim.Duration, error) { return svc, nil }
	for class := 0; class < 2; class++ {
		class := class
		if got := fr.arb.AddClass(weights[class]); got != class {
			t.Fatalf("class index %d, want %d", got, class)
		}
		rcfg := ReceiverConfig{Geometry: g, Arbiter: fr.arb, ArbClass: class}
		recv, err := NewReceiver(dst, rcfg, cpusim.NewCounter(nil), handler)
		if err != nil {
			t.Fatal(err)
		}
		recv.OnProcessed = func(*Delivery, sim.Time) { fr.order = append(fr.order, class) }
		recv.Start()
		fr.recvs[class] = recv
		snd, err := NewSender(src, src.Connect(dst), SenderConfig{Geometry: g},
			recv.BaseVA, recv.Key, cpusim.NewCounter(nil))
		if err != nil {
			t.Fatal(err)
		}
		fr.sends[class] = snd
	}
	return fr
}

// TestFairArbiterWeightedShare pins the DRR grant pattern: with both
// classes backlogged and weights 3:1, any aligned window of 16 steady-
// state completions holds exactly 12 class-0 and 4 class-1 services.
func TestFairArbiterWeightedShare(t *testing.T) {
	fr := newFairRig(t, [2]int{3, 1}, 5*sim.Microsecond)
	const per = 24
	for i := 0; i < per; i++ {
		for class := 0; class < 2; class++ {
			fr.sends[class].Send(PackLocal(1, 1, [2]uint64{uint64(i), 0}, nil), nil)
		}
	}
	fr.eng.Run()
	if len(fr.order) != 2*per {
		t.Fatalf("completed %d of %d messages", len(fr.order), 2*per)
	}
	// Skip the ramp (frames still landing) and the drain (class 0 done
	// first leaves class 1 alone at the tail).
	window := fr.order[4:20]
	n0 := 0
	for _, c := range window {
		if c == 0 {
			n0++
		}
	}
	if n0 != 12 {
		t.Fatalf("class 0 got %d of 16 steady-state grants, want 12 (order %v)", n0, fr.order)
	}
	// Every grant completes one frame: each class got all of its own.
	all0 := 0
	for _, c := range fr.order {
		if c == 0 {
			all0++
		}
	}
	if all0 != per {
		t.Fatalf("class 0 completed %d of %d (work conserving)", all0, per)
	}
}

// TestFairArbiterWorkConserving pins that an idle class costs nothing:
// with only class 1 sending, every grant goes to class 1 back to back.
func TestFairArbiterWorkConserving(t *testing.T) {
	fr := newFairRig(t, [2]int{3, 1}, sim.Microsecond)
	const per = 10
	for i := 0; i < per; i++ {
		fr.sends[1].Send(PackLocal(1, 1, [2]uint64{uint64(i), 0}, nil), nil)
	}
	fr.eng.Run()
	if len(fr.order) != per {
		t.Fatalf("completed %d of %d", len(fr.order), per)
	}
	for i, c := range fr.order {
		if c != 1 {
			t.Fatalf("completion %d from class %d", i, c)
		}
	}
}

// TestFairArbiterDeterministic re-runs the weighted rig and pins the
// completion order bit for bit.
func TestFairArbiterDeterministic(t *testing.T) {
	run := func() []int {
		fr := newFairRig(t, [2]int{3, 1}, 2*sim.Microsecond)
		for i := 0; i < 16; i++ {
			fr.sends[i%2].Send(PackLocal(1, 1, [2]uint64{uint64(i), 0}, nil), nil)
		}
		fr.eng.Run()
		return fr.order
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("completion %d: class %d vs %d", i, a[i], b[i])
		}
	}
}

// TestFairArbiterStopReleasesGrant pins the teardown path: a receiver
// stopped while it holds the arbiter's grant (its service in progress)
// must hand the node back, or every other receiver on the arbiter —
// including ones enrolled after the node rejoins — is never served.
func TestFairArbiterStopReleasesGrant(t *testing.T) {
	fr := newFairRig(t, [2]int{1, 1}, 5*sim.Microsecond)
	const per = 6
	for i := 0; i < per; i++ {
		for class := 0; class < 2; class++ {
			fr.sends[class].Send(PackLocal(1, 1, [2]uint64{uint64(i), 0}, nil), nil)
		}
	}
	// Run until class 0 has completed one service and holds its next
	// grant, then stop it mid-service.
	for len(fr.order) == 0 || fr.order[len(fr.order)-1] != 1 {
		if !fr.eng.Step() {
			t.Fatal("quiescent before the first class-1 completion")
		}
	}
	fr.recvs[0].Stop()
	fr.eng.Run()
	n1 := 0
	for _, c := range fr.order {
		if c == 1 {
			n1++
		}
	}
	if n1 != per {
		t.Fatalf("class 1 completed %d of %d after class 0 stopped holding the grant (order %v)", n1, per, fr.order)
	}
}
