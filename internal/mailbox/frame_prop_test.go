package mailbox

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"twochains/internal/mem"
)

// readUsr copies the user payload of a delivery.
func readUsr(as *mem.AddressSpace, d *Delivery) ([]byte, error) {
	return as.ReadBytesDMA(d.UsrVA, d.UsrLen)
}

// readArg reads argument word i of a delivery.
func readArg(as *mem.AddressSpace, d *Delivery, i int) (uint64, error) {
	raw, err := as.ReadBytesDMA(d.ArgsVA+uint64(i*8), 8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(raw), nil
}

// TestPackParseRoundTripProperty: any well-formed message packs into a
// frame that parses back to the same structure, with the signal trailer in
// place and the payload intact.
func TestPackParseRoundTripProperty(t *testing.T) {
	as := mem.NewAddressSpace(1 << 20)
	frameVA, err := as.AllocPages("frame", 1<<16, mem.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	f := func(kindSel uint8, pkgID, elemID uint8, seq uint32, args [2]uint64, usr []byte, gotSlots uint8, bodyWords uint8) bool {
		if seq == 0 {
			seq = 1
		}
		if len(usr) > 4096 {
			usr = usr[:4096]
		}
		msg := &Message{
			PkgID:  pkgID,
			ElemID: elemID,
			Args:   args,
			Usr:    usr,
		}
		switch kindSel % 3 {
		case 0:
			msg.Kind = KindLocal
		case 1:
			msg.Kind = KindData
		default:
			msg.Kind = KindInjected
			slots := int(gotSlots%8) + 1
			words := int(bodyWords%32) + 1
			msg.GotTableLen = slots * 8
			msg.JamImage = make([]byte, slots*8+8+words*8)
			for i := range msg.JamImage {
				msg.JamImage[i] = byte(i * 7)
			}
			msg.TextLen = words * 8
			msg.EntryOff = uint32((words - 1) * 8)
		}
		frameSize := msg.WireLen()
		buf := make([]byte, frameSize)
		if err := msg.Pack(buf, frameSize, seq, frameVA); err != nil {
			return false
		}
		if err := as.WriteBytesDMA(frameVA, buf); err != nil {
			return false
		}
		if !SigPresent(as, frameVA, frameSize, seq) {
			return false
		}
		if SigPresent(as, frameVA, frameSize, seq+1) {
			return false
		}
		d := new(Delivery)
		err := ParseFrameInto(d, as, frameVA, frameSize)
		if err != nil {
			return false
		}
		if d.Kind != msg.Kind || d.PkgID != pkgID || d.ElemID != elemID || d.Seq != seq {
			return false
		}
		if d.UsrLen != len(usr) {
			return false
		}
		gotUsr, err := readUsr(as, d)
		if err != nil || !bytes.Equal(gotUsr, usr) {
			return false
		}
		for i, want := range args {
			got, err := readArg(as, d, i)
			if err != nil || got != want {
				return false
			}
		}
		if msg.Kind == KindInjected {
			if d.JamLen != len(msg.JamImage) || d.TextLen != msg.TextLen {
				return false
			}
			if d.EntryVA != d.CodeVA+uint64(msg.EntryOff) {
				return false
			}
			// The gp slot must point at the travelling GOT.
			gp, err := as.ReadU64(d.GpSlotVA)
			if err != nil || gp != d.GotVA {
				return false
			}
			// Body bytes survive (past the GOT table + gp slot).
			body, err := as.ReadBytesDMA(d.CodeVA, d.BodyLen)
			if err != nil || !bytes.Equal(body, msg.JamImage[msg.GotTableLen+8:]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestCorruptedFrameNeverPanics: random bytes in a mailbox slot must be
// rejected cleanly, never crash the parser.
func TestCorruptedFrameNeverPanics(t *testing.T) {
	as := mem.NewAddressSpace(1 << 18)
	frameVA, err := as.AllocPages("frame", 4096, mem.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw []byte, sizeSel uint8) bool {
		frameSize := (int(sizeSel%32) + 1) * 64
		buf := make([]byte, frameSize)
		copy(buf, raw)
		buf[0] = FrameMagic // force past the magic check to reach the validators
		if err := as.WriteBytesDMA(frameVA, buf); err != nil {
			return false
		}
		d := new(Delivery)
		err := ParseFrameInto(d, as, frameVA, frameSize)
		if err != nil {
			return true // rejected: fine
		}
		// Accepted frames must have internally consistent geometry.
		if d.UsrLen < 0 || d.JamLen < 0 {
			return false
		}
		end := HeaderSize + d.JamLen + ArgsSize + d.UsrLen + SigSize
		if d.Kind == KindInjected {
			end += PreSize
		}
		return end <= frameSize
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestBurstSplitReassemblyProperty: a burst packed into consecutive
// mailbox slots (the SendBatch staging discipline) splits into contiguous
// runs only at the region wrap, and every frame parses back to its
// message — seq, args, and payload intact — regardless of geometry, burst
// length, or starting sequence number.
func TestBurstSplitReassemblyProperty(t *testing.T) {
	as := mem.NewAddressSpace(1 << 20)
	base, err := as.AllocPages("region", 1<<18, mem.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	f := func(nSel, banksSel, slotsSel uint8, seqSel uint32, usr []byte) bool {
		g := Geometry{
			Banks:     int(banksSel%3) + 1,
			Slots:     int(slotsSel%5) + 1,
			FrameSize: 512,
		}
		if len(usr) > 300 {
			usr = usr[:300]
		}
		n := int(nSel%25) + 1
		if n > g.Total() {
			n = g.Total() // a burst larger than the region overwrites slots
		}
		startSeq := seqSel%1000 + 1

		// Split phase: pack each message at its slot, tracking contiguous
		// runs exactly like the batched sender.
		runs := 0
		prevEnd := ^uint64(0)
		for i := 0; i < n; i++ {
			seq := startSeq + uint32(i)
			_, _, off := g.SlotFor(seq)
			if off != prevEnd {
				runs++
			}
			prevEnd = off + uint64(g.FrameSize)
			msg := PackLocal(1, 2, [2]uint64{uint64(seq), ^uint64(seq)}, usr)
			buf := make([]byte, g.FrameSize)
			if err := msg.Pack(buf, g.FrameSize, seq, base+off); err != nil {
				return false
			}
			if err := as.WriteBytesDMA(base+off, buf); err != nil {
				return false
			}
		}
		// The run count is forced by geometry alone: one initial run plus
		// one per region wrap inside the burst.
		wantRuns := 1
		for i := 1; i < n; i++ {
			if int(startSeq-1+uint32(i))%g.Total() == 0 {
				wantRuns++
			}
		}
		if runs != wantRuns {
			return false
		}

		// Reassembly phase: every slot parses back to its message.
		for i := 0; i < n; i++ {
			seq := startSeq + uint32(i)
			_, _, off := g.SlotFor(seq)
			if !SigPresent(as, base+off, g.FrameSize, seq) {
				return false
			}
			d := new(Delivery)
			err := ParseFrameInto(d, as, base+off, g.FrameSize)
			if err != nil || d.Seq != seq || d.Kind != KindLocal {
				return false
			}
			a0, err0 := readArg(as, d, 0)
			a1, err1 := readArg(as, d, 1)
			if err0 != nil || err1 != nil || a0 != uint64(seq) || a1 != ^uint64(seq) {
				return false
			}
			got, err := readUsr(as, d)
			if err != nil || !bytes.Equal(got, usr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// TestSigLittleEndianLayout pins the on-the-wire signal format.
func TestSigLittleEndianLayout(t *testing.T) {
	msg := PackLocal(1, 2, [2]uint64{}, nil)
	buf := make([]byte, 64)
	if err := msg.Pack(buf, 64, 0xAABBCCDD, 0); err != nil {
		t.Fatal(err)
	}
	if binary.LittleEndian.Uint32(buf[56:]) != 0xAABBCCDD {
		t.Fatalf("seq echo bytes: % x", buf[56:60])
	}
	if binary.LittleEndian.Uint32(buf[60:]) != SigMagicVal {
		t.Fatalf("sig magic bytes: % x", buf[60:64])
	}
}
