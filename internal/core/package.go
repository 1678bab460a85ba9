// Package core implements the Two-Chains runtime: packages of rieds and
// jams, simulated cluster nodes, namespace exchange, and the two active
// message invocation methods (Injected Function and Local Function).
//
// Terminology follows §IV of the paper. A package is built from canonical
// single-source elements: jam_NAME.amc files become jams (mobile code
// segments shipped inside messages) and ried_NAME.rdc files become rieds
// (relocatable interface distributions — shared libraries loaded on a
// process to set up interfaces and data objects). The same jam sources,
// compiled without the GOT transform, are linked into the package's Local
// Function library, whose entry points are called by element ID.
package core

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"twochains/internal/amcc"
	"twochains/internal/asm"
	"twochains/internal/elfobj"
	"twochains/internal/linker"
	"twochains/internal/mailbox"
)

// ElementKind distinguishes the two chains.
type ElementKind uint8

const (
	ElemJam ElementKind = iota
	ElemRied
)

func (k ElementKind) String() string {
	if k == ElemRied {
		return "ried"
	}
	return "jam"
}

// Element is one named member of a package.
type Element struct {
	ID   uint8
	Name string // entry symbol for jams; library name for rieds
	Kind ElementKind
	Jam  *linker.Jam   // set for jams
	Ried *linker.Image // set for rieds
}

// Package is a built Two-Chains package.
type Package struct {
	ID       uint8
	Name     string
	Elements []*Element
	// LocalLib is the Local Function shared library: every jam compiled
	// unmodified, providing the receiver-side function vector (paper
	// §IV-B).
	LocalLib *linker.Image
}

// Element returns the named element.
func (p *Package) Element(name string) (*Element, bool) {
	for _, e := range p.Elements {
		if e.Name == name {
			return e, true
		}
	}
	return nil, false
}

// Jams returns the jam elements in ID order.
func (p *Package) Jams() []*Element {
	var out []*Element
	for _, e := range p.Elements {
		if e.Kind == ElemJam {
			out = append(out, e)
		}
	}
	return out
}

// BuildPackage compiles package sources. Keys are canonical file names:
// jam_NAME.* defines a jam whose entry symbol is jam_NAME; ried_NAME.*
// defines a ried library. Suffix selects the language: .amc and .rdc are
// AMC (C subset, compiled by internal/amcc — the paper's C source flow);
// .ams and .rds are JAM assembly. The package ID is assigned by the
// installer.
func BuildPackage(name string, sources map[string]string) (*Package, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("core: package %s: no sources", name)
	}
	pkg := &Package{Name: name}

	// Deterministic build order.
	files := make([]string, 0, len(sources))
	for f := range sources {
		files = append(files, f)
	}
	sort.Strings(files)

	compile := func(file, src string) (*elfobj.Object, string, error) {
		switch {
		case strings.HasSuffix(file, ".amc"), strings.HasSuffix(file, ".rdc"):
			obj, err := amcc.Compile(file, src)
			return obj, file[:len(file)-4], err
		case strings.HasSuffix(file, ".ams"), strings.HasSuffix(file, ".rds"):
			obj, err := asm.Assemble(file, src)
			return obj, file[:len(file)-4], err
		}
		return nil, "", fmt.Errorf("unknown source suffix in %q (want .amc/.rdc for AMC, .ams/.rds for assembly)", file)
	}

	var jamObjs []*elfobj.Object
	var id uint8
	for _, file := range files {
		src := sources[file]
		switch {
		case strings.HasPrefix(file, "jam_"):
			obj, entry, err := compile(file, src)
			if err != nil {
				return nil, fmt.Errorf("core: package %s: %w", name, err)
			}
			jam, err := linker.BuildJam(obj, entry)
			if err != nil {
				return nil, fmt.Errorf("core: package %s: %w", name, err)
			}
			pkg.Elements = append(pkg.Elements, &Element{
				ID: id, Name: entry, Kind: ElemJam, Jam: jam,
			})
			id++
			jamObjs = append(jamObjs, obj)
		case strings.HasPrefix(file, "ried_"):
			obj, libName, err := compile(file, src)
			if err != nil {
				return nil, fmt.Errorf("core: package %s: %w", name, err)
			}
			img, err := linker.LinkLibrary(libName, []*elfobj.Object{obj})
			if err != nil {
				return nil, fmt.Errorf("core: package %s: %w", name, err)
			}
			pkg.Elements = append(pkg.Elements, &Element{
				ID: id, Name: libName, Kind: ElemRied, Ried: img,
			})
			id++
		default:
			return nil, fmt.Errorf("core: package %s: %q is not a canonical element file (jam_* or ried_*)",
				name, file)
		}
	}

	// Local Function library: all jam sources linked unmodified.
	if len(jamObjs) > 0 {
		lib, err := linker.LinkLibrary(name+"_local", jamObjs)
		if err != nil {
			return nil, fmt.Errorf("core: package %s: local library: %w", name, err)
		}
		pkg.LocalLib = lib
	}
	return pkg, nil
}

// InjectedFrameLen reports the mailbox frame size (64-byte granular) an
// Injected Function send of the jam with a usrLen-byte payload
// occupies — what deployments use to size mailbox geometry for an
// element.
func InjectedFrameLen(e *Element, usrLen int) (int, error) {
	if e.Kind != ElemJam {
		return 0, fmt.Errorf("core: %s is a %s, not a jam", e.Name, e.Kind)
	}
	m := &mailbox.Message{
		Kind:     mailbox.KindInjected,
		JamImage: make([]byte, e.Jam.ShippedSize()),
		Usr:      make([]byte, usrLen),
	}
	return m.WireLen(), nil
}

// PackageMagic identifies a serialized package ("TCPK").
const PackageMagic = 0x4b504354

// Encode serializes the package (the install-directory format tcpkg
// writes).
func (p *Package) Encode() []byte {
	var b []byte
	u32 := func(v uint32) { b = binary.LittleEndian.AppendUint32(b, v) }
	str := func(s string) {
		b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
		b = append(b, s...)
	}
	blob := func(p []byte) {
		u32(uint32(len(p)))
		b = append(b, p...)
	}
	u32(PackageMagic)
	str(p.Name)
	u32(uint32(len(p.Elements)))
	for _, e := range p.Elements {
		b = append(b, e.ID, byte(e.Kind))
		str(e.Name)
		switch e.Kind {
		case ElemJam:
			blob(e.Jam.Encode())
		case ElemRied:
			blob(e.Ried.Encode())
		}
	}
	if p.LocalLib != nil {
		blob(p.LocalLib.Encode())
	} else {
		u32(0)
	}
	return b
}

// DecodePackage parses a serialized package.
func DecodePackage(data []byte) (*Package, error) {
	off := 0
	bad := func(what string) (*Package, error) {
		return nil, fmt.Errorf("core: truncated package at %s (offset %d)", what, off)
	}
	u32 := func() (uint32, bool) {
		if off+4 > len(data) {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(data[off:])
		off += 4
		return v, true
	}
	str := func() (string, bool) {
		if off+2 > len(data) {
			return "", false
		}
		n := int(binary.LittleEndian.Uint16(data[off:]))
		off += 2
		if off+n > len(data) {
			return "", false
		}
		s := string(data[off : off+n])
		off += n
		return s, true
	}
	blob := func() ([]byte, bool) {
		n, ok := u32()
		if !ok || off+int(n) > len(data) {
			return nil, false
		}
		out := data[off : off+int(n)]
		off += int(n)
		return out, true
	}
	magic, ok := u32()
	if !ok || magic != PackageMagic {
		return nil, fmt.Errorf("core: bad package magic")
	}
	p := &Package{}
	if p.Name, ok = str(); !ok {
		return bad("name")
	}
	n, ok := u32()
	if !ok || n > 256 {
		return bad("element count")
	}
	for i := 0; i < int(n); i++ {
		if off+2 > len(data) {
			return bad("element header")
		}
		e := &Element{ID: data[off], Kind: ElementKind(data[off+1])}
		off += 2
		if e.Name, ok = str(); !ok {
			return bad("element name")
		}
		raw, ok := blob()
		if !ok {
			return bad("element body")
		}
		var err error
		switch e.Kind {
		case ElemJam:
			e.Jam, err = linker.DecodeJam(raw)
		case ElemRied:
			e.Ried, err = linker.DecodeImage(raw)
		default:
			return nil, fmt.Errorf("core: unknown element kind %d", e.Kind)
		}
		if err != nil {
			return nil, fmt.Errorf("core: element %s: %w", e.Name, err)
		}
		p.Elements = append(p.Elements, e)
	}
	raw, ok := blob()
	if !ok {
		return bad("local library")
	}
	if len(raw) > 0 {
		lib, err := linker.DecodeImage(raw)
		if err != nil {
			return nil, fmt.Errorf("core: local library: %w", err)
		}
		p.LocalLib = lib
	}
	return p, nil
}
