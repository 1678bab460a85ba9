package mailbox_test

import (
	"errors"
	"testing"

	"twochains/internal/core"
	"twochains/internal/mailbox"
	"twochains/internal/mem"
	"twochains/internal/tcapp"
	"twochains/internal/wire"
)

// FuzzParseFrame feeds arbitrary slot bytes to ParseFrameInto, as a
// hostile sender's put would land them. Every input must be refused with
// a typed error — a *wire.Error from the frame checks or a *mem.Fault from
// the address space — or parse into a Delivery whose GOT, GOT pointer
// slot, body, entry, args and payload lie inside the slot, ahead of its
// signal trailer; never a panic. The seeds are real frames: every element
// of the tcapp packages packed as an injected or a local call, and a data
// frame. The slot is the input rounded up to 64 bytes.
func FuzzParseFrame(f *testing.F) {
	const frameVA = 0x1000 // where the seeds were packed; the slot sits there too
	pack := func(m *mailbox.Message) {
		size := m.WireLen()
		buf := make([]byte, size)
		if err := m.Pack(buf, size, 1, frameVA); err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	for _, app := range tcapp.Names() {
		pkg, err := tcapp.Build(app)
		if err != nil {
			f.Fatal(err)
		}
		for _, e := range pkg.Elements {
			args, usr := [2]uint64{uint64(e.ID), 7}, []byte(app)
			pack(mailbox.PackLocal(1, e.ID, args, usr))
			if e.Kind != core.ElemJam {
				continue
			}
			j := e.Jam
			image := make([]byte, j.ShippedSize())
			copy(image[j.GotTableLen()+8:], j.Body)
			pack(&mailbox.Message{Kind: mailbox.KindInjected, PkgID: 1, ElemID: e.ID,
				JamImage: image, GotTableLen: j.GotTableLen(), TextLen: j.TextLen,
				EntryOff: j.Entry, Args: args, Usr: usr})
		}
	}
	pack(mailbox.PackData([]byte("data")))

	f.Fuzz(func(t *testing.T, slot []byte) {
		if len(slot) > 1<<16 {
			return
		}
		size := max(64, (len(slot)+63)/64*64)
		as := mem.NewAddressSpace(1 << 18)
		defer as.Release()
		va, err := as.AllocPages("mailbox", size, mem.PermRW)
		if err != nil {
			t.Fatal(err)
		}
		if err := as.WriteBytesDMA(va, slot); err != nil {
			t.Fatal(err)
		}
		var d mailbox.Delivery
		if err := mailbox.ParseFrameInto(&d, as, va, size); err != nil {
			var we *wire.Error
			var mf *mem.Fault
			if !errors.As(err, &we) && !errors.As(err, &mf) {
				t.Fatalf("untyped refusal: %v", err)
			}
			return
		}
		end := va + uint64(size) - mailbox.SigSize
		inside := func(what string, at uint64, n int) {
			if n < 0 || at < va || at > end || uint64(n) > end-at {
				t.Fatalf("%s [0x%x, +%d) outside slot [0x%x, 0x%x): %+v", what, at, n, va, end, d)
			}
		}
		inside("args", d.ArgsVA, mailbox.ArgsSize)
		inside("payload", d.UsrVA, d.UsrLen)
		switch d.Kind {
		case mailbox.KindInjected:
			inside("GOT", d.GotVA, int(d.GpSlotVA-d.GotVA))
			inside("GOT pointer slot", d.GpSlotVA, 8)
			inside("body", d.CodeVA, d.BodyLen)
			if d.TextLen > d.BodyLen || d.EntryVA < d.CodeVA || d.EntryVA >= d.CodeVA+uint64(d.TextLen) {
				t.Fatalf("entry 0x%x outside text [0x%x, +%d): %+v", d.EntryVA, d.CodeVA, d.TextLen, d)
			}
		case mailbox.KindLocal, mailbox.KindData:
			if d.JamLen != 0 {
				t.Fatalf("non-injected frame accepted with %d jam bytes", d.JamLen)
			}
		default:
			t.Fatalf("frame of unknown kind %d accepted", d.Kind)
		}
	})
}
