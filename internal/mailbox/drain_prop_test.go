package mailbox

import (
	"testing"
	"testing/quick"

	"twochains/internal/sim"
)

// TestDrainFIFOProperty pins the stall-requeue ordering audit of the
// sender's drain path: whatever mix of single sends and batched bursts
// hits a credit-stalled sender — including bursts large enough to stall
// several times mid-drain, re-queueing their remainder behind the item
// that re-stalled — every message must be delivered exactly once, in the
// exact order it was submitted. The receiver's sequence check enforces
// slot order on the wire; this property additionally ties wire order back
// to submission order through the payload argument.
func TestDrainFIFOProperty(t *testing.T) {
	f := func(bankSel, slotSel uint8, plan []uint8, slowSel uint8) bool {
		g := Geometry{
			Banks:     int(bankSel%3) + 1,
			Slots:     int(slotSel%3) + 1,
			FrameSize: 128,
		}
		if len(plan) > 24 {
			plan = plan[:24]
		}
		// A slow handler keeps banks full so credit stalls actually occur.
		serviceCost := sim.Duration(int(slowSel%5)+1) * sim.Microsecond
		r := newRig(t, g, true, nil)
		r.receiver.Handler = func(d *Delivery) (sim.Duration, error) {
			var args [2]uint64
			var err error
			for i := range args {
				if args[i], err = readArg(r.b.AS, d, i); err != nil {
					return 0, err
				}
			}
			r.args = append(r.args, args)
			return serviceCost, nil
		}

		// Submit: plan entry n%3==0 is a single Send, else a burst of
		// (n%5)+1 messages. Every message carries its global submission
		// index in arg0.
		next := uint64(0)
		submitted := 0
		for _, n := range plan {
			if n%3 == 0 {
				r.sender.Send(PackLocal(1, 1, [2]uint64{next, 0}, nil), nil)
				next++
				submitted++
				continue
			}
			burst := int(n%5) + 1
			msgs := make([]*Message, burst)
			for i := 0; i < burst; i++ {
				msgs[i] = PackLocal(1, 1, [2]uint64{next, 0}, nil)
				next++
				submitted++
			}
			r.sender.SendBatch(msgs, nil)
		}
		r.eng.Run()

		if len(r.args) != submitted {
			t.Logf("delivered %d of %d", len(r.args), submitted)
			return false
		}
		for i, a := range r.args {
			if a[0] != uint64(i) {
				t.Logf("position %d got submission index %d (args %v)", i, a[0], r.args)
				return false
			}
		}
		if r.receiver.Errors != 0 {
			t.Logf("receiver errors: %d", r.receiver.Errors)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestDrainRestallKeepsOrder deterministically forces the mid-drain
// re-stall: one bank of one slot means every frame needs its own credit,
// so a 6-message burst stalls, drains one frame per returned credit, and
// re-queues its remainder five times — original order must survive every
// requeue.
func TestDrainRestallKeepsOrder(t *testing.T) {
	g := Geometry{Banks: 1, Slots: 1, FrameSize: 128}
	r := newRig(t, g, true, nil)
	const n = 6
	msgs := make([]*Message, n)
	for i := range msgs {
		msgs[i] = PackLocal(1, 1, [2]uint64{uint64(i + 1), 0}, nil)
	}
	r.sender.SendBatch(msgs, nil)
	// A straggler single send queues behind the stalled burst.
	r.sender.Send(PackLocal(1, 1, [2]uint64{n + 1, 0}, nil), nil)
	r.eng.Run()

	if len(r.args) != n+1 {
		t.Fatalf("delivered %d of %d", len(r.args), n+1)
	}
	for i, a := range r.args {
		if a[0] != uint64(i+1) {
			t.Fatalf("position %d carries submission %d", i, a[0])
		}
	}
	if r.sender.CreditStalls == 0 {
		t.Fatal("scenario never stalled — not exercising drain")
	}
}
