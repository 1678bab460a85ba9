// Package linker implements the Two-Chains link and load pipeline:
//
//   - LinkLibrary combines relocatable objects into a shared-library Image
//     (the paper's "ried" container and the Local Function library);
//   - Load maps an Image into a node's address space, binding its GOT
//     against the node's symbol namespace — standard dynamic linking;
//   - BuildJam extracts a single function (plus its read-only data) from an
//     object and statically rewrites its GOT accesses to indirect through a
//     pointer stored just before the code, producing a relocatable "jam"
//     that can execute at any address on any receiver (paper §III-B).
package linker

import (
	"bytes"
	"fmt"

	"twochains/internal/elfobj"
	"twochains/internal/isa"
	"twochains/internal/wire"
)

// PageAlign is the section alignment inside a linked image, chosen so the
// loader can apply distinct page permissions per section.
const PageAlign = 4096

// ImageMagic identifies a serialized Image ("TCSO").
const ImageMagic = 0x4f534354

// ImageSym is an exported symbol, at an image-relative offset.
type ImageSym struct {
	Name string
	Off  uint32
	Kind elfobj.SymKind
}

// GotEntry describes one GOT slot. Local entries bind to an offset inside
// the image; external entries bind by name through the node namespace at
// load time.
type GotEntry struct {
	Sym   string // diagnostic name (always set)
	Local bool
	Off   uint32 // image-relative target when Local
}

// LoadReloc is an 8-byte pointer fixup applied at load time (RelAbs64).
type LoadReloc struct {
	Off    uint32 // image-relative location of the pointer
	Sym    string // external symbol name when not Local
	Local  bool
	Target uint32 // image-relative target when Local
	Addend int32
}

// Image is a linked shared object with a fixed internal layout:
// [GOT][.text][.rodata][.data][.bss], each section page-aligned.
type Image struct {
	Name string
	Blob []byte // GOT placeholder through end of .data; .bss is implicit

	GotOff, GotLen       int
	TextOff, TextLen     int
	RodataOff, RodataLen int
	DataOff, DataLen     int
	BssOff, BssLen       int
	TotalSize            int

	Exports    []ImageSym
	Got        []GotEntry
	LoadRelocs []LoadReloc
}

// layout lists the section geometry fields in their wire order.
func (img *Image) layout() [11]*int {
	return [...]*int{
		&img.GotOff, &img.GotLen, &img.TextOff, &img.TextLen,
		&img.RodataOff, &img.RodataLen, &img.DataOff, &img.DataLen,
		&img.BssOff, &img.BssLen, &img.TotalSize,
	}
}

// Encode serializes the image (the on-the-wire form of a ried).
func (img *Image) Encode() []byte {
	w := wire.NewWriter(ImageMagic)
	w.Str(img.Name)
	w.Bytes(img.Blob)
	for _, p := range img.layout() {
		w.U32(uint32(*p))
	}
	w.Count(len(img.Exports))
	for _, e := range img.Exports {
		w.Str(e.Name)
		w.U32(e.Off)
		w.U8(uint8(e.Kind))
	}
	w.Count(len(img.Got))
	for _, g := range img.Got {
		w.Str(g.Sym)
		w.Bool(g.Local)
		w.U32(g.Off)
	}
	w.Count(len(img.LoadRelocs))
	for _, lr := range img.LoadRelocs {
		w.Str(lr.Sym)
		w.Bool(lr.Local)
		w.U32(lr.Off)
		w.U32(lr.Target)
		w.U32(uint32(lr.Addend))
	}
	return w
}

// DecodeImage parses a serialized image. It refuses any layout
// LinkLibrary cannot produce (see checkLayout) and any export, local GOT
// target or load relocation outside the image, so a decoded image loads
// into its own pages and no others. Every failure is a *wire.Error.
func DecodeImage(data []byte) (*Image, error) {
	r := wire.NewReader("linker image", ImageMagic, data)
	img := &Image{Name: r.Str("name"), Blob: bytes.Clone(r.Bytes("blob"))}
	for _, p := range img.layout() {
		*p = int(r.U32("layout"))
	}
	r.Fail("layout", img.checkLayout())
	inside := func(field string, off uint32) {
		if int(off) > img.TotalSize {
			r.Fail(field, fmt.Errorf("offset %d past the image's %d bytes", off, img.TotalSize))
		}
	}
	img.Exports = wire.Make[ImageSym](r.Count("export count", 1<<20, 7))
	for i := range img.Exports {
		img.Exports[i] = ImageSym{
			Name: r.Str("export name"),
			Off:  r.U32("export offset"),
			Kind: elfobj.SymKind(r.U8("export kind")),
		}
		inside("export offset", img.Exports[i].Off)
	}
	img.Got = wire.Make[GotEntry](r.Count("GOT count", 1<<20, 7))
	if len(img.Got)*8 != img.GotLen {
		r.Fail("GOT count", fmt.Errorf("%d entries in a %d-byte GOT", len(img.Got), img.GotLen))
	}
	for i := range img.Got {
		img.Got[i] = GotEntry{Sym: r.Str("GOT symbol"), Local: r.Bool("GOT local"), Off: r.U32("GOT offset")}
		if img.Got[i].Local {
			inside("GOT offset", img.Got[i].Off)
		}
	}
	img.LoadRelocs = wire.Make[LoadReloc](r.Count("load reloc count", 1<<20, 15))
	for i := range img.LoadRelocs {
		lr := LoadReloc{
			Sym:    r.Str("load reloc symbol"),
			Local:  r.Bool("load reloc local"),
			Off:    r.U32("load reloc offset"),
			Target: r.U32("load reloc target"),
			Addend: int32(r.U32("load reloc addend")),
		}
		// The pointer a load relocation writes lies in the blob's sections.
		if lr.Off < uint32(img.TextOff) || int(lr.Off)+8 > len(img.Blob) {
			r.Fail("load reloc offset", fmt.Errorf("8 bytes at %d outside the sections [%d, %d)", lr.Off, img.TextOff, len(img.Blob)))
		}
		if lr.Local {
			inside("load reloc target", lr.Target)
		}
		img.LoadRelocs[i] = lr
	}
	return wire.Finish(r, img)
}

// checkLayout reports a layout LinkLibrary cannot produce: the sections
// come in [GOT][text][rodata][data][bss] order, each starting on the page
// boundary after the one before it (the GOT at 0), the text in whole
// instructions, TotalSize the page boundary after .bss, and a blob that
// holds everything before .bss.
func (img *Image) checkLayout() error {
	l := img.layout()
	end := 0
	for i := 0; i < len(l)-1; i += 2 {
		if want := alignUp(end, PageAlign); *l[i] != want {
			return fmt.Errorf("section %d at %d, want %d", i/2, *l[i], want)
		}
		end = *l[i] + *l[i+1]
	}
	switch {
	case img.TextLen%isa.InstrSize != 0:
		return fmt.Errorf("text length %d is not whole instructions", img.TextLen)
	case img.TotalSize != alignUp(end, PageAlign):
		return fmt.Errorf("total size %d, want %d", img.TotalSize, alignUp(end, PageAlign))
	case len(img.Blob) != img.BssOff:
		return fmt.Errorf("%d-byte blob, want %d (up to .bss)", len(img.Blob), img.BssOff)
	}
	return nil
}
