package mailbox

import (
	"strings"
	"testing"

	"twochains/internal/cpusim"
	"twochains/internal/mem"
	"twochains/internal/model"
	"twochains/internal/sim"
	"twochains/internal/simnet"
	"twochains/internal/ucx"
)

// rig is a two-node mailbox test fixture: node A sends, node B receives.
type rig struct {
	eng      *sim.Engine
	a, b     *ucx.Worker
	sender   *Sender
	receiver *Receiver
	recvCnt  *cpusim.Counter
	sendCnt  *cpusim.Counter
	handled  []*Delivery
	usr      [][]byte
	args     [][2]uint64
}

func newRig(t *testing.T, g Geometry, credits bool, handler Handler) *rig {
	t.Helper()
	eng := sim.NewEngine()
	fab := simnet.NewFabric(eng, simnet.DefaultConfig())
	r := &rig{
		eng:     eng,
		a:       ucx.NewWorker(fab, mem.NewAddressSpace(8<<20), nil),
		b:       ucx.NewWorker(fab, mem.NewAddressSpace(8<<20), nil),
		recvCnt: cpusim.NewCounter(nil),
		sendCnt: cpusim.NewCounter(nil),
	}
	rcfg := ReceiverConfig{Geometry: g, Credits: credits}
	if handler == nil {
		handler = func(d *Delivery) (sim.Duration, error) {
			// d is the receiver's scratch record, valid only during the
			// callback: copy it for post-run assertions.
			cp := *d
			r.handled = append(r.handled, &cp)
			usr, err := readUsr(r.b.AS, d)
			if err != nil {
				return 0, err
			}
			r.usr = append(r.usr, usr)
			var args [2]uint64
			for i := range args {
				if args[i], err = readArg(r.b.AS, d, i); err != nil {
					return 0, err
				}
			}
			r.args = append(r.args, args)
			return 100 * sim.Nanosecond, nil
		}
	}
	recv, err := NewReceiver(r.b, rcfg, r.recvCnt, handler)
	if err != nil {
		t.Fatal(err)
	}
	r.receiver = recv

	scfg := SenderConfig{Geometry: g, Credits: credits}
	snd, err := NewSender(r.a, r.a.Connect(r.b), scfg, recv.BaseVA, recv.Key, r.sendCnt)
	if err != nil {
		t.Fatal(err)
	}
	r.sender = snd
	if credits {
		recv.SetCreditReturn(r.b.Connect(r.a), snd.CreditVA, snd.CreditKey)
	}
	recv.Start()
	return r
}

func g1() Geometry  { return Geometry{Banks: 1, Slots: 1, FrameSize: 256} }
func g44() Geometry { return Geometry{Banks: 4, Slots: 4, FrameSize: 256} }

func TestLocalFrameRoundTrip(t *testing.T) {
	r := newRig(t, g1(), false, nil)
	msg := PackLocal(3, 7, [2]uint64{11, 22}, []byte("payload-bytes"))
	var info SendInfo
	r.sender.Send(msg, func(i SendInfo) { info = i })
	r.eng.Run()
	if info.Err != nil {
		t.Fatal(info.Err)
	}
	if len(r.handled) != 1 {
		t.Fatalf("handled %d messages", len(r.handled))
	}
	d := r.handled[0]
	if d.Kind != KindLocal || d.PkgID != 3 || d.ElemID != 7 || d.Seq != 1 {
		t.Fatalf("delivery %+v", d)
	}
	for i, want := range []uint64{11, 22} {
		got, err := readArg(r.b.AS, d, i)
		if err != nil || got != want {
			t.Fatalf("arg %d = %d, %v", i, got, err)
		}
	}
	if string(r.usr[0]) != "payload-bytes" {
		t.Fatalf("usr = %q", r.usr[0])
	}
}

func TestWireLenMatchesPaperSizes(t *testing.T) {
	// §VII-A: 1-integer Local Function message is 64B; Injected with the
	// 1408-byte Indirect Put jam is 1472B.
	local := PackLocal(1, 1, [2]uint64{1, 1}, make([]byte, 4))
	if got := local.WireLen(); got != 64 {
		t.Fatalf("local 1-int frame = %d, want 64", got)
	}
	inj := &Message{
		Kind:        KindInjected,
		JamImage:    make([]byte, 1408),
		GotTableLen: 4 * 8,
		Usr:         make([]byte, 4),
	}
	if got := inj.WireLen(); got != 1472 {
		t.Fatalf("injected 1-int frame = %d, want 1472", got)
	}
}

func TestInjectedFramePatching(t *testing.T) {
	// The packed frame must carry the gp slot pointing at the travelling
	// GOT and local entries bound relative to the body.
	g := Geometry{Banks: 1, Slots: 1, FrameSize: 512}
	var got *Delivery
	r := newRig(t, g, false, func(d *Delivery) (sim.Duration, error) {
		got = d
		return 0, nil
	})
	jam := make([]byte, 2*8+8+64) // 2 GOT slots, gp, 64B body
	// Slot 0 pre-bound by the "core runtime" to a fake receiver VA.
	for i, b := range []byte{0xEF, 0xBE, 0xAD, 0xDE} {
		jam[i] = b
	}
	msg := &Message{
		Kind:        KindInjected,
		JamImage:    jam,
		GotTableLen: 16,
		TextLen:     64,
		EntryOff:    8,
		Patches:     []GotPatch{{Slot: 1, BodyOff: 32}},
		Args:        [2]uint64{5, 0},
		Usr:         []byte{1, 2, 3, 4},
	}
	r.sender.Send(msg, nil)
	r.eng.Run()
	if got == nil {
		t.Fatal("no delivery")
	}
	if got.JamLen != len(jam) || got.BodyLen != 64 {
		t.Fatalf("jamLen=%d bodyLen=%d", got.JamLen, got.BodyLen)
	}
	// gp slot points at the GOT table.
	gp, err := r.b.AS.ReadU64(got.GpSlotVA)
	if err != nil || gp != got.GotVA {
		t.Fatalf("gp = %#x, want %#x (%v)", gp, got.GotVA, err)
	}
	// Slot 1 was patched to body+32.
	slot1, _ := r.b.AS.ReadU64(got.GotVA + 8)
	if slot1 != got.CodeVA+32 {
		t.Fatalf("slot1 = %#x, want %#x", slot1, got.CodeVA+32)
	}
	// Slot 0 kept the pre-bound extern VA.
	slot0, _ := r.b.AS.ReadU64(got.GotVA)
	if slot0 != 0xDEADBEEF {
		t.Fatalf("slot0 = %#x", slot0)
	}
	if got.EntryVA != got.CodeVA+8 {
		t.Fatalf("entry = %#x, want %#x", got.EntryVA, got.CodeVA+8)
	}
}

func TestSequenceOfMessages(t *testing.T) {
	r := newRig(t, g44(), true, nil)
	const n = 40 // several laps over the 16 slots
	done := 0
	for i := 0; i < n; i++ {
		r.sender.Send(PackLocal(1, 1, [2]uint64{uint64(i), 0}, nil), func(info SendInfo) {
			if info.Err != nil {
				t.Errorf("send %v", info.Err)
			}
			done++
		})
	}
	r.eng.Run()
	if done != n {
		t.Fatalf("delivered %d of %d", done, n)
	}
	if len(r.handled) != n {
		t.Fatalf("handled %d of %d", len(r.handled), n)
	}
	for i, d := range r.handled {
		if d.Seq != uint32(i+1) {
			t.Fatalf("message %d has seq %d", i, d.Seq)
		}
		// Arguments captured at handling time, before slot reuse.
		if r.args[i][0] != uint64(i) {
			t.Fatalf("message %d arg %d", i, r.args[i][0])
		}
	}
	if r.receiver.Processed != n {
		t.Fatalf("processed %d", r.receiver.Processed)
	}
}

func TestCreditFlowControlStalls(t *testing.T) {
	// With 2x2 slots and a slow handler, blasting 20 sends must stall the
	// sender until credits return — and still deliver everything in order.
	g := Geometry{Banks: 2, Slots: 2, FrameSize: 128}
	slow := func(d *Delivery) (sim.Duration, error) { return 3 * sim.Microsecond, nil }
	r := newRig(t, g, true, slow)
	const n = 20
	var seqs []uint32
	for i := 0; i < n; i++ {
		r.sender.Send(PackLocal(1, 1, [2]uint64{}, nil), func(info SendInfo) {
			if info.Err != nil {
				t.Errorf("send: %v", info.Err)
			}
			seqs = append(seqs, info.Seq)
		})
	}
	r.eng.Run()
	if len(seqs) != n {
		t.Fatalf("delivered %d", len(seqs))
	}
	if r.sender.CreditStalls == 0 {
		t.Fatal("sender never stalled despite tiny mailbox")
	}
	// n frames drain through a window of Banks*Slots < n only if every
	// bank's credit comes back.
	if got := r.receiver.Processed; got != n || n <= g.Banks*g.Slots {
		t.Fatalf("processed %d of %d frames through a %d-slot window", got, n, g.Banks*g.Slots)
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != seqs[i-1]+1 {
			t.Fatalf("out of order delivery: %v", seqs)
		}
	}
}

func TestWithoutExecutionSkipsHandler(t *testing.T) {
	called := false
	r := newRig(t, g1(), false, func(d *Delivery) (sim.Duration, error) {
		called = true
		return 0, nil
	})
	r.sender.Send(&Message{Kind: KindData, Usr: []byte{9, 9, 9}}, nil)
	r.eng.Run()
	if called {
		t.Fatal("handler invoked for KindData frame")
	}
	if r.receiver.Processed != 1 {
		t.Fatal("data frame not processed")
	}
}

func TestHandlerErrorCounted(t *testing.T) {
	r := newRig(t, g1(), false, func(d *Delivery) (sim.Duration, error) {
		return 0, errFake
	})
	var reported error
	r.receiver.OnError = func(d *Delivery, err error) { reported = err }
	r.sender.Send(PackLocal(1, 1, [2]uint64{}, nil), nil)
	r.eng.Run()
	if r.receiver.Errors != 1 {
		t.Fatal("error not counted")
	}
	if reported == nil || !strings.Contains(reported.Error(), "fake") {
		t.Fatalf("OnError got %v", reported)
	}
	// The loop must advance past the bad frame.
	if r.receiver.nextSeq != 2 {
		t.Fatalf("receiver stuck at seq %d", r.receiver.nextSeq)
	}
}

type fakeErr struct{}

func (fakeErr) Error() string { return "fake handler failure" }

var errFake = fakeErr{}

func TestWaitCyclesPollVsWfe(t *testing.T) {
	// Same traffic, two wait modes: polling must burn far more cycles.
	run := func(mode cpusim.WaitMode) float64 {
		g := g1()
		eng := sim.NewEngine()
		fab := simnet.NewFabric(eng, simnet.DefaultConfig())
		a := ucx.NewWorker(fab, mem.NewAddressSpace(4<<20), nil)
		b := ucx.NewWorker(fab, mem.NewAddressSpace(4<<20), nil)
		cnt := cpusim.NewCounter(nil)
		rcfg := ReceiverConfig{Geometry: g, WaitMode: mode}
		recv, err := NewReceiver(b, rcfg, cnt, func(d *Delivery) (sim.Duration, error) { return 0, nil })
		if err != nil {
			t.Fatal(err)
		}
		snd, err := NewSender(a, a.Connect(b), SenderConfig{Geometry: g}, recv.BaseVA, recv.Key, nil)
		if err != nil {
			t.Fatal(err)
		}
		recv.Start()
		// Space sends 5us apart so the receiver waits between messages.
		for i := 0; i < 10; i++ {
			i := i
			eng.At(sim.Time(i)*sim.Time(5*sim.Microsecond), func() {
				snd.Send(PackLocal(1, 1, [2]uint64{}, nil), nil)
			})
		}
		eng.Run()
		return cnt.WaitCycles
	}
	poll, wfe := run(cpusim.Poll), run(cpusim.WFE)
	if poll < 10*wfe {
		t.Fatalf("poll %.0f cycles vs wfe %.0f: expected order-of-magnitude gap", poll, wfe)
	}
}

func TestVariableFramesCostExtraWait(t *testing.T) {
	run := func(variable bool) float64 {
		g := g1()
		eng := sim.NewEngine()
		fab := simnet.NewFabric(eng, simnet.DefaultConfig())
		a := ucx.NewWorker(fab, mem.NewAddressSpace(4<<20), nil)
		b := ucx.NewWorker(fab, mem.NewAddressSpace(4<<20), nil)
		cnt := cpusim.NewCounter(nil)
		// WFE with no RNG: every wait episode costs exactly WfeWaitCycles.
		rcfg := ReceiverConfig{Geometry: g, WaitMode: cpusim.WFE, VariableFrames: variable}
		recv, err := NewReceiver(b, rcfg, cnt, func(d *Delivery) (sim.Duration, error) { return 0, nil })
		if err != nil {
			t.Fatal(err)
		}
		snd, err := NewSender(a, a.Connect(b), SenderConfig{Geometry: g}, recv.BaseVA, recv.Key, nil)
		if err != nil {
			t.Fatal(err)
		}
		recv.Start()
		for i := 0; i < 5; i++ {
			i := i
			eng.At(sim.Time(i)*sim.Time(3*sim.Microsecond), func() {
				snd.Send(PackLocal(1, 1, [2]uint64{}, nil), nil)
			})
		}
		eng.Run()
		return cnt.WaitCycles / model.WfeWaitCycles
	}
	fixed, variable := run(false), run(true)
	if variable <= fixed {
		t.Fatalf("variable frames waits %f <= fixed %f", variable, fixed)
	}
}

func TestSeparateSignalModeDelivers(t *testing.T) {
	// Unordered fabric + separate signal put: messages must still arrive
	// uncorrupted and in sequence.
	eng := sim.NewEngine()
	fab := simnet.NewFabric(eng, simnet.Config{Ordered: false, Seed: 99})
	a := ucx.NewWorker(fab, mem.NewAddressSpace(4<<20), nil)
	b := ucx.NewWorker(fab, mem.NewAddressSpace(4<<20), nil)
	g := Geometry{Banks: 2, Slots: 2, FrameSize: 256}
	var usr [][]byte
	recv, err := NewReceiver(b, ReceiverConfig{Geometry: g}, nil, func(d *Delivery) (sim.Duration, error) {
		u, err := readUsr(b.AS, d)
		usr = append(usr, u)
		return 0, err
	})
	if err != nil {
		t.Fatal(err)
	}
	scfg := SenderConfig{Geometry: g, SeparateSignal: true}
	snd, err := NewSender(a, a.Connect(b), scfg, recv.BaseVA, recv.Key, nil)
	if err != nil {
		t.Fatal(err)
	}
	recv.Start()
	for i := 0; i < 4; i++ {
		snd.Send(PackLocal(1, 1, [2]uint64{}, []byte{byte(i), 0xAA}), nil)
	}
	eng.Run()
	if len(usr) != 4 {
		t.Fatalf("delivered %d of 4", len(usr))
	}
	for i, u := range usr {
		if u[0] != byte(i) || u[1] != 0xAA {
			t.Fatalf("message %d corrupted: %v", i, u)
		}
	}
}

func TestGeometryMapping(t *testing.T) {
	g := Geometry{Banks: 3, Slots: 4, FrameSize: 128}
	if g.Total() != 12 || g.RegionSize() != 12*128 {
		t.Fatal("geometry sizes")
	}
	bank, slot, off := g.SlotFor(1)
	if bank != 0 || slot != 0 || off != 0 {
		t.Fatalf("seq 1 -> %d %d %d", bank, slot, off)
	}
	bank, slot, off = g.SlotFor(5)
	if bank != 1 || slot != 0 || off != uint64(4*128) {
		t.Fatalf("seq 5 -> %d %d %d", bank, slot, off)
	}
	// Wraps after 12.
	bank, slot, _ = g.SlotFor(13)
	if bank != 0 || slot != 0 {
		t.Fatalf("seq 13 -> %d %d", bank, slot)
	}
}

func TestGeometryValidate(t *testing.T) {
	if (Geometry{Banks: 0, Slots: 1, FrameSize: 64}).Validate() == nil {
		t.Fatal("zero banks accepted")
	}
	if (Geometry{Banks: 1, Slots: 1, FrameSize: 63}).Validate() == nil {
		t.Fatal("unaligned frame accepted")
	}
	if (Geometry{Banks: 1, Slots: 1, FrameSize: 0}).Validate() == nil {
		t.Fatal("tiny frame accepted")
	}
}

func TestPackRejectsOversize(t *testing.T) {
	msg := PackLocal(1, 1, [2]uint64{}, make([]byte, 1024))
	buf := make([]byte, 256)
	if err := msg.Pack(buf, 256, 1, 0x1000); err == nil {
		t.Fatal("oversized message packed")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	as := mem.NewAddressSpace(1 << 16)
	va, _ := as.AllocPages("f", 4096, mem.PermRW)
	if err := ParseFrameInto(new(Delivery), as, va, 256); err == nil {
		t.Fatal("zero frame parsed")
	}
}

func TestInsertGpSecurityMode(t *testing.T) {
	// With InsertGp, a malicious sender-supplied GOT pointer is replaced
	// by the receiver-computed one before execution.
	g := Geometry{Banks: 1, Slots: 1, FrameSize: 512}
	eng := sim.NewEngine()
	fab := simnet.NewFabric(eng, simnet.DefaultConfig())
	a := ucx.NewWorker(fab, mem.NewAddressSpace(4<<20), nil)
	b := ucx.NewWorker(fab, mem.NewAddressSpace(4<<20), nil)
	rcfg := ReceiverConfig{Geometry: g, InsertGp: true}
	var gp, gotVA uint64
	recv, err := NewReceiver(b, rcfg, nil, func(d *Delivery) (sim.Duration, error) {
		gp, _ = b.AS.ReadU64(d.GpSlotVA)
		gotVA = d.GotVA
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	snd, err := NewSender(a, a.Connect(b), SenderConfig{Geometry: g}, recv.BaseVA, recv.Key, nil)
	if err != nil {
		t.Fatal(err)
	}
	recv.Start()
	jam := make([]byte, 8+8+16) // 1 slot + gp + 16B body
	msg := &Message{Kind: KindInjected, JamImage: jam, GotTableLen: 8, TextLen: 16, EntryOff: 0}
	// Sabotage: after packing, the sender's staging would hold a bogus gp;
	// we emulate by sending normally — InsertGp must still equal GotVA.
	snd.Send(msg, nil)
	eng.Run()
	if gp != gotVA {
		t.Fatalf("gp %#x != receiver GOT %#x", gp, gotVA)
	}
}
