// Package mailbox implements the reactive mailbox of Two-Chains (paper
// Fig. 1): pinned, remotely writable frame slots organized as M banks of N
// mailboxes, a one-sided signal protocol, bank-granular credit flow
// control, and a receiver thread that waits by spin-polling or WFE and
// executes messages on arrival.
//
// Frame layouts (fixed-size frames, little-endian), matching the paper's
// Fig. 2 (Injected Function) and Fig. 3 (Local Function):
//
//	Injected: [header 16][preamble 8][GOT K*8][gp slot 8][body][args 24][usr]...[sig 8]
//	Local:    [header 16][args 24][usr]...[sig 8]
//
// The signal trailer sits in the last 8 bytes of the frame slot. The GOT
// pointer slot is immediately before the code, and the sender fills the
// GOT table with receiver virtual addresses after the namespace exchange.
// With these layouts a 1-integer Local frame is 64 bytes and an Injected
// Indirect Put frame (1408-byte shipped jam) is 1472 bytes — the exact
// sizes reported in §VII-A of the paper.
package mailbox

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"twochains/internal/mem"
	"twochains/internal/wire"
)

// Frame layout constants.
const (
	HeaderSize = 16
	PreSize    = 8 // preamble, present only in injected frames
	ArgsSize   = 16
	SigSize    = 8

	FrameMagic  = 0xA7
	SigMagicVal = 0x4A414D21 // "JAM!"
)

// Message kinds.
const (
	KindInjected = 1 // code travels in the message (Fig. 2)
	KindLocal    = 2 // function invoked by ID from the loaded library (Fig. 3)
	KindData     = 3 // delivery only, no invocation ("without-execution")
)

// GotPatch marks a travelling-GOT slot that must be bound relative to
// wherever the jam body lands (a jam-internal symbol).
type GotPatch struct {
	Slot    int
	BodyOff uint32
}

// Message is one active message to be packed into a frame.
//
// Hot senders take messages from their Sender's freelist with
// Sender.GetMessage and hand them to Send/SendBatch, which return them
// to the freelist once the frame bytes have been packed into the staging
// region (or the send failed). After that hand-off the caller must not
// touch the message again — it may already be serving another send.
// Messages constructed directly (&Message{...}, PackLocal) are never
// recycled and stay owned by the caller.
type Message struct {
	Kind   uint8
	PkgID  uint8
	ElemID uint8
	// owner, when set, is the Sender whose private freelist minted this
	// message (Sender.GetMessage): release recycles it there, so
	// caller-constructed messages keep value semantics.
	owner *Sender
	// JamImage is the prebuilt [GOT table][gp slot][body] image for
	// injected messages; nil otherwise. Extern GOT entries already carry
	// receiver VAs; local entries and the gp slot are patched at pack time
	// when the destination frame VA is known.
	JamImage    []byte
	GotTableLen int // bytes of GOT table at the front of JamImage
	TextLen     int // executable prefix of the body (rest is rodata)
	EntryOff    uint32
	Patches     []GotPatch
	Args        [2]uint64
	Usr         []byte
}

// release returns a freelist message to its sender, dropping every
// payload reference (JamImage, Patches, and Usr are caller-owned and
// merely unreferenced, never recycled here). Caller-constructed messages
// are left alone.
func (m *Message) release() {
	if o := m.owner; o != nil {
		*m = Message{owner: o}
		o.msgFree = append(o.msgFree, m)
	}
}

// overhead returns the non-payload bytes of a frame of the kind;
// jamLen counts only for injected frames.
func overhead(kind uint8, jamLen int) int {
	n := HeaderSize + ArgsSize + SigSize
	if kind == KindInjected {
		n += PreSize + jamLen
	}
	return n
}

// FrameLen returns the frame bytes a message of the kind needs with a
// jamLen-byte jam image and a usrLen-byte payload, rounded up to the
// 64-byte granularity the paper uses for message sizing. It sizes a
// frame without building the message.
func FrameLen(kind uint8, jamLen, usrLen int) int {
	return (overhead(kind, jamLen) + usrLen + 63) / 64 * 64
}

// WireLen returns the frame bytes needed for the message (FrameLen).
func (m *Message) WireLen() int {
	return FrameLen(m.Kind, len(m.JamImage), len(m.Usr))
}

// Pack serializes the message into buf, which must be at least frameSize
// bytes. dstFrameVA is the receiver-side VA the frame will occupy; it
// determines the GOT pointer value and any body-relative GOT entries.
// The signal trailer is written at frameSize-8.
func (m *Message) Pack(buf []byte, frameSize int, seq uint32, dstFrameVA uint64) error {
	return m.packInto(buf, frameSize, seq, dstFrameVA, frameSize, false)
}

// packInto is Pack with the steady-state shortcuts the Sender's per-slot
// cache enables: clearTo bounds the tail clear to bytes a previous pack
// of the same buffer actually dirtied, and haveJam skips the jam image
// copy when the identical image (same backing array) is already in buf
// from the slot's previous occupant. Pack(…) == packInto(…, frameSize,
// false): clear everything, copy everything.
func (m *Message) packInto(buf []byte, frameSize int, seq uint32, dstFrameVA uint64, clearTo int, haveJam bool) error {
	if n := overhead(m.Kind, len(m.JamImage)) + len(m.Usr); n > frameSize {
		return fmt.Errorf("mailbox: message needs %d bytes, frame is %d", n, frameSize)
	}
	if len(buf) < frameSize {
		return fmt.Errorf("mailbox: pack buffer %d < frame size %d", len(buf), frameSize)
	}
	if m.Kind == KindInjected && m.GotTableLen+8 > len(m.JamImage) {
		return fmt.Errorf("mailbox: GOT table %d exceeds jam image %d", m.GotTableLen, len(m.JamImage))
	}
	jamLen := 0
	if m.Kind == KindInjected {
		jamLen = len(m.JamImage)
	}
	// The fields below cover [0, written) with no gaps — header, preamble,
	// jam image (the gp slot sits inside it), args, usr are contiguous —
	// so only the tail up to the signal trailer needs clearing to leave
	// the frame bit-identical to a full pre-zero.
	written := HeaderSize + ArgsSize + len(m.Usr)
	if m.Kind == KindInjected {
		written += PreSize + jamLen
	}
	if clearTo > written {
		clear(buf[written:clearTo])
	}
	buf[0] = FrameMagic
	buf[1] = m.Kind
	buf[2] = m.PkgID
	buf[3] = m.ElemID
	binary.LittleEndian.PutUint32(buf[4:], seq)
	binary.LittleEndian.PutUint32(buf[8:], uint32(jamLen))
	binary.LittleEndian.PutUint32(buf[12:], uint32(len(m.Usr)))

	off := HeaderSize
	if m.Kind == KindInjected {
		binary.LittleEndian.PutUint16(buf[off:], uint16(m.GotTableLen))
		binary.LittleEndian.PutUint16(buf[off+2:], uint16(m.TextLen))
		binary.LittleEndian.PutUint32(buf[off+4:], m.EntryOff)
		off += PreSize
		if !haveJam {
			copy(buf[off:], m.JamImage)
		}
		gotVA := dstFrameVA + uint64(HeaderSize+PreSize)
		gpOff := off + m.GotTableLen
		binary.LittleEndian.PutUint64(buf[gpOff:], gotVA)
		codeVA := gotVA + uint64(m.GotTableLen) + 8
		for _, p := range m.Patches {
			binary.LittleEndian.PutUint64(buf[off+p.Slot*8:], codeVA+uint64(p.BodyOff))
		}
		off += len(m.JamImage)
	}
	for i, a := range m.Args {
		binary.LittleEndian.PutUint64(buf[off+i*8:], a)
	}
	off += ArgsSize
	copy(buf[off:], m.Usr)

	binary.LittleEndian.PutUint32(buf[frameSize-8:], seq)
	binary.LittleEndian.PutUint32(buf[frameSize-4:], SigMagicVal)
	return nil
}

// Delivery describes a parsed frame on the receiver, with the VAs of its
// parts in the receiver's address space.
type Delivery struct {
	Kind   uint8
	PkgID  uint8
	ElemID uint8
	Seq    uint32
	JamLen int
	UsrLen int

	GotVA    uint64 // travelling GOT table (injected only)
	GpSlotVA uint64 // GOT pointer slot (injected only)
	CodeVA   uint64 // jam body (injected only)
	EntryVA  uint64 // entry point within the body (injected only)
	BodyLen  int    // body bytes (injected only)
	TextLen  int    // executable prefix of the body (injected only)
	ArgsVA   uint64
	UsrVA    uint64
}

// ParseFrameInto reads and validates the frame at frameVA into a
// caller-owned Delivery, the allocation-free form receivers use with a
// per-region scratch record. d is fully overwritten. The slot's bytes are
// hostile input: a frame is refused with a *wire.Error naming the field
// (or a *mem.Fault when the slot is not readable), and an accepted one has
// its GOT, GOT pointer slot, body, args and payload inside the slot, ahead
// of the signal trailer.
func ParseFrameInto(d *Delivery, as *mem.AddressSpace, frameVA uint64, frameSize int) error {
	hdr, err := as.ViewDMA(frameVA, HeaderSize)
	if err != nil {
		return err
	}
	if hdr[0] != FrameMagic {
		return frameError("magic", 0, "bad frame magic %#x at 0x%x", hdr[0], frameVA)
	}
	*d = Delivery{
		Kind:   hdr[1],
		PkgID:  hdr[2],
		ElemID: hdr[3],
		Seq:    binary.LittleEndian.Uint32(hdr[4:]),
		JamLen: int(binary.LittleEndian.Uint32(hdr[8:])),
		UsrLen: int(binary.LittleEndian.Uint32(hdr[12:])),
	}
	overhead := HeaderSize + ArgsSize + SigSize
	off := frameVA + HeaderSize
	switch d.Kind {
	case KindInjected:
		overhead += PreSize + d.JamLen
		pre, err := as.ViewDMA(off, PreSize)
		if err != nil {
			return err
		}
		gotLen := int(binary.LittleEndian.Uint16(pre))
		textLen := int(binary.LittleEndian.Uint16(pre[2:]))
		entry := binary.LittleEndian.Uint32(pre[4:])
		if gotLen+8 > d.JamLen || gotLen%8 != 0 {
			return frameError("GOT length", HeaderSize, "GOT table %d invalid for jam %d", gotLen, d.JamLen)
		}
		off += PreSize
		d.GotVA = off
		d.GpSlotVA = off + uint64(gotLen)
		d.CodeVA = d.GpSlotVA + 8
		d.BodyLen = d.JamLen - gotLen - 8
		d.TextLen = textLen
		if textLen > d.BodyLen || textLen%8 != 0 {
			return frameError("text length", HeaderSize+2, "text length %d invalid for body %d", textLen, d.BodyLen)
		}
		if int(entry) >= textLen {
			return frameError("entry", HeaderSize+4, "entry %d outside text %d", entry, textLen)
		}
		d.EntryVA = d.CodeVA + uint64(entry)
		off += uint64(d.JamLen)
	case KindLocal, KindData:
		if d.JamLen != 0 {
			return frameError("jam length", 8, "non-injected frame carries %d jam bytes", d.JamLen)
		}
	default:
		return frameError("kind", 1, "unknown message kind %d", d.Kind)
	}
	if overhead+d.UsrLen > frameSize {
		return frameError("usr length", 12, "frame overruns slot (jam %d, usr %d, slot %d)", d.JamLen, d.UsrLen, frameSize)
	}
	d.ArgsVA = off
	d.UsrVA = off + ArgsSize
	return nil
}

// frameError refuses a frame at the field that starts off bytes into the
// slot.
func frameError(field string, off int, format string, args ...any) error {
	return &wire.Error{Format: "mailbox frame", Field: field, Off: off, Err: fmt.Errorf(format, args...)}
}

// SigPresent checks the signal trailer of the frame slot for seq.
func SigPresent(as *mem.AddressSpace, frameVA uint64, frameSize int, seq uint32) bool {
	raw, err := as.ViewDMA(frameVA+uint64(frameSize)-8, 8)
	if err != nil {
		return false
	}
	return binary.LittleEndian.Uint32(raw[4:]) == SigMagicVal &&
		binary.LittleEndian.Uint32(raw) == seq
}

// Geometry maps sequence numbers onto banks and slots.
type Geometry struct {
	Banks     int // M
	Slots     int // N mailboxes per bank
	FrameSize int
}

// Validate checks the geometry is usable.
func (g Geometry) Validate() error {
	if g.Banks <= 0 || g.Slots <= 0 {
		return fmt.Errorf("mailbox: geometry %dx%d invalid", g.Banks, g.Slots)
	}
	if g.FrameSize < HeaderSize+ArgsSize+SigSize || g.FrameSize%64 != 0 {
		return fmt.Errorf("mailbox: frame size %d invalid", g.FrameSize)
	}
	return nil
}

// Total returns the number of frame slots.
func (g Geometry) Total() int { return g.Banks * g.Slots }

// RegionSize returns the bytes of mailbox memory required.
func (g Geometry) RegionSize() int { return g.Total() * g.FrameSize }

// SlotFor maps a 1-based sequence number to (bank, slot, frame offset).
// Power-of-two geometries (the common configuration) take the mask path
// — SlotFor sits on the per-message send path, where the three integer
// divisions are measurable.
func (g Geometry) SlotFor(seq uint32) (bank, slot int, off uint64) {
	total := g.Banks * g.Slots
	idx := int(seq - 1)
	if total&(total-1) == 0 && g.Slots&(g.Slots-1) == 0 {
		idx &= total - 1
		slot = idx & (g.Slots - 1)
		bank = idx >> uint(bits.TrailingZeros(uint(g.Slots)))
	} else {
		idx %= total
		bank = idx / g.Slots
		slot = idx % g.Slots
	}
	off = uint64(idx * g.FrameSize)
	return bank, slot, off
}
