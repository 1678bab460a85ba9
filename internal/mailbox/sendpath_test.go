package mailbox

import (
	"fmt"
	"strings"
	"testing"

	"twochains/internal/cpusim"
	"twochains/internal/mem"
	"twochains/internal/sim"
	"twochains/internal/simnet"
	"twochains/internal/ucx"
)

// sendPathRig is a two-node sender/receiver pair over a 2-bank, 2-slot
// region. The separate-signal protocol runs on an unordered fabric, the
// one it exists for; the single-put protocol on an ordered one.
type sendPathRig struct {
	eng    *sim.Engine
	a      *ucx.Worker
	sender *Sender
	infos  []SendInfo
	next   uint64 // submission index carried in the next message
}

func newSendPathRig(t *testing.T, credits, sep bool) *sendPathRig {
	t.Helper()
	g := Geometry{Banks: 2, Slots: 2, FrameSize: 256}
	eng := sim.NewEngine()
	fcfg := simnet.DefaultConfig()
	fcfg.Ordered = !sep
	fab := simnet.NewFabric(eng, fcfg)
	a := ucx.NewWorker(fab, mem.NewAddressSpace(4<<20), nil)
	b := ucx.NewWorker(fab, mem.NewAddressSpace(4<<20), nil)
	rcfg := ReceiverConfig{Geometry: g, Credits: credits}
	recv, err := NewReceiver(b, rcfg, cpusim.NewCounter(nil), func(d *Delivery) (sim.Duration, error) {
		return 300 * sim.Nanosecond, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	scfg := SenderConfig{Geometry: g, Credits: credits, SeparateSignal: sep}
	snd, err := NewSender(a, a.Connect(b), scfg, recv.BaseVA, recv.Key, cpusim.NewCounter(nil))
	if err != nil {
		t.Fatal(err)
	}
	if credits {
		recv.SetCreditReturn(b.Connect(a), snd.CreditVA, snd.CreditKey)
	}
	recv.Start()
	return &sendPathRig{eng: eng, a: a, sender: snd}
}

// msg returns the next message: odd submissions are injected (they pay
// the GOT-patch charge), even ones are Local Function calls.
func (r *sendPathRig) msg() Message {
	k := r.next
	r.next++
	m := Message{Args: [2]uint64{k, 0}, Usr: []byte{byte(k)}}
	if k%2 == 0 {
		m.Kind, m.PkgID, m.ElemID = KindLocal, 1, 1
		return m
	}
	m.Kind = KindInjected
	m.JamImage = make([]byte, 2*8+8+64) // 2 GOT slots, gp, 64-byte body
	m.GotTableLen = 16
	m.TextLen = 64
	m.Patches = []GotPatch{{Slot: 1, BodyOff: 32}}
	return m
}

func (r *sendPathRig) batch(n int) []Message {
	msgs := make([]Message, n)
	for i := range msgs {
		msgs[i] = r.msg()
	}
	return msgs
}

func (r *sendPathRig) done(info SendInfo) { r.infos = append(r.infos, info) }

// pins renders every completion in firing order as seq@delivered (or
// seq!error), then the sender's counters and its CPU's busy time.
func (r *sendPathRig) pins() string {
	var sb strings.Builder
	for _, in := range r.infos {
		if in.Err != nil {
			fmt.Fprintf(&sb, "%d!%v ", in.Seq, in.Err)
		} else {
			fmt.Fprintf(&sb, "%d@%d ", in.Seq, int64(in.Delivered))
		}
	}
	st := r.sender
	fmt.Fprintf(&sb, "| sent=%d stalls=%d batches=%d batched=%d busy=%d",
		st.Sent, st.CreditStalls, st.Batches, st.BatchedFrames, int64(r.a.CPU.BusyTime()))
	return sb.String()
}

// TestSendPathPins pins the send path by value: for each submission
// shape — single sends, one- and three-frame batches, a run crossing the
// region wrap, a burst and a send train that hit a credit stall and then
// drain — with credits on and off and with the single-put and the
// separate-signal protocol, every message's sequence number, delivery
// time and error, the sender's counters and the sender CPU's busy time
// must stay exactly where they are.
func TestSendPathPins(t *testing.T) {
	shapes := []struct {
		name   string
		submit func(r *sendPathRig)
	}{
		{"send", func(r *sendPathRig) {
			for i := 0; i < 3; i++ {
				m := r.msg()
				r.sender.Send(&m, r.done)
			}
		}},
		{"batch1", func(r *sendPathRig) { r.sender.SendBatch(r.batch(1), r.done) }},
		{"batch3", func(r *sendPathRig) { r.sender.SendBatch(r.batch(3), r.done) }},
		{"wrap", func(r *sendPathRig) {
			r.sender.SendBatch(r.batch(3), r.done)
			r.eng.Run()
			// Seqs 4-6 take the last slot and the first two: the run
			// splits where the region wraps.
			r.sender.SendBatch(r.batch(3), r.done)
		}},
		{"stall", func(r *sendPathRig) {
			// Seven frames into four slots at one instant: with credits
			// the fifth stalls on bank 0 and the rest queue behind it.
			r.sender.SendBatch(r.batch(7), r.done)
		}},
		{"send-stall", func(r *sendPathRig) {
			for i := 0; i < 6; i++ {
				m := r.msg()
				r.sender.Send(&m, r.done)
			}
		}},
	}
	want := map[string]string{
		"send/credits=true/sep=false":        "1@1006667 2@1235167 3@1450167 | sent=3 stalls=0 batches=0 batched=0 busy=658500",
		"send/credits=true/sep=true":         "1@2207333 2@2588833 3@2956833 | sent=3 stalls=0 batches=0 batched=0 busy=1117500",
		"send/credits=false/sep=false":       "1@1006667 2@1235167 3@1450167 | sent=3 stalls=0 batches=0 batched=0 busy=658500",
		"send/credits=false/sep=true":        "1@2207333 2@2588833 3@2956833 | sent=3 stalls=0 batches=0 batched=0 busy=1117500",
		"batch1/credits=true/sep=false":      "1@1006667 | sent=1 stalls=0 batches=0 batched=0 busy=215000",
		"batch1/credits=true/sep=true":       "1@2207333 | sent=1 stalls=0 batches=0 batched=0 busy=368000",
		"batch1/credits=false/sep=false":     "1@1006667 | sent=1 stalls=0 batches=0 batched=0 busy=215000",
		"batch1/credits=false/sep=true":      "1@2207333 | sent=1 stalls=0 batches=0 batched=0 busy=368000",
		"batch3/credits=true/sep=false":      "1@1041500 2@1041500 3@1041500 | sent=3 stalls=0 batches=1 batched=3 busy=228500",
		"batch3/credits=true/sep=true":       "1@2207333 2@2588833 3@2956833 | sent=3 stalls=0 batches=0 batched=0 busy=1117500",
		"batch3/credits=false/sep=false":     "1@1041500 2@1041500 3@1041500 | sent=3 stalls=0 batches=1 batched=3 busy=228500",
		"batch3/credits=false/sep=true":      "1@2207333 2@2588833 3@2956833 | sent=3 stalls=0 batches=0 batched=0 busy=1117500",
		"wrap/credits=true/sep=false":        "1@1041500 2@1041500 3@1041500 4@3702000 5@3941166 6@3941166 | sent=6 stalls=0 batches=2 batched=5 busy=685500",
		"wrap/credits=true/sep=true":         "1@2207333 2@2588833 3@2956833 4@6269340 5@6637340 6@7018840 | sent=6 stalls=0 batches=0 batched=0 busy=2248500",
		"wrap/credits=false/sep=false":       "1@1041500 2@1041500 3@1041500 4@3105667 5@3344833 6@3344833 | sent=6 stalls=0 batches=2 batched=5 busy=685500",
		"wrap/credits=false/sep=true":        "1@2207333 2@2588833 3@2956833 4@5525666 5@5893666 6@6275166 | sent=6 stalls=0 batches=0 batched=0 busy=2248500",
		"stall/credits=true/sep=false":       "1@1065667 2@1065667 3@1065667 4@1065667 5@3712667 6@3941167 7@4408667 | sent=7 stalls=2 batches=1 batched=4 busy=900500",
		"stall/credits=true/sep=true":        "1@2207333 2@2588833 3@2956833 4@3338333 5@6255840 6@6637340 7@7005340 | sent=7 stalls=2 batches=0 batched=0 busy=2616500",
		"stall/credits=false/sep=false":      "1@1065667 2@1065667 3@1065667 4@1065667 5@1283500 6@1283500 7@1283500 | sent=7 stalls=0 batches=2 batched=7 busy=470500",
		"stall/credits=false/sep=true":       "1@2207333 2@2588833 3@2956833 4@3338333 5@3706333 6@4087833 7@4455833 | sent=7 stalls=0 batches=0 batched=0 busy=2616500",
		"send-stall/credits=true/sep=false":  "1@1006667 2@1235167 3@1450167 4@1678667 5@3653667 6@3882167 | sent=6 stalls=1 batches=0 batched=0 busy=1330500",
		"send-stall/credits=true/sep=true":   "1@2207333 2@2588833 3@2956833 4@3338333 5@6255840 6@6637340 | sent=6 stalls=1 batches=0 batched=0 busy=2248500",
		"send-stall/credits=false/sep=false": "1@1006667 2@1235167 3@1450167 4@1678667 5@1893667 6@2122167 | sent=6 stalls=0 batches=0 batched=0 busy=1330500",
		"send-stall/credits=false/sep=true":  "1@2207333 2@2588833 3@2956833 4@3338333 5@3706333 6@4087833 | sent=6 stalls=0 batches=0 batched=0 busy=2248500",
	}
	for _, sh := range shapes {
		for _, credits := range []bool{true, false} {
			for _, sep := range []bool{false, true} {
				name := fmt.Sprintf("%s/credits=%v/sep=%v", sh.name, credits, sep)
				t.Run(name, func(t *testing.T) {
					r := newSendPathRig(t, credits, sep)
					sh.submit(r)
					r.eng.Run()
					got := r.pins()
					if w, ok := want[name]; !ok || got != w {
						t.Errorf("send path moved:\n got %s\nwant %s", got, w)
					}
				})
			}
		}
	}
}
