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
	"fmt"
	"sort"
	"strings"

	"twochains/internal/amcc"
	"twochains/internal/asm"
	"twochains/internal/elfobj"
	"twochains/internal/linker"
	"twochains/internal/mailbox"
	"twochains/internal/wire"
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

// localSuffix names a package's Local Function library after the package.
const localSuffix = "_local"

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
	// Names are encoded with wire.Writer.Str; the local library adds a
	// suffix to the package name.
	if len(name+localSuffix) > wire.MaxStr {
		return nil, fmt.Errorf("core: package name of %d bytes is over the %d a name holds", len(name), wire.MaxStr-len(localSuffix))
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
		if len(file) > wire.MaxStr {
			return nil, fmt.Errorf("core: package %s: file name of %d bytes is over the %d a name holds", name, len(file), wire.MaxStr)
		}
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
		lib, err := linker.LinkLibrary(name+localSuffix, jamObjs)
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
// element. It builds no message.
func InjectedFrameLen(e *Element, usrLen int) (int, error) {
	if e.Kind != ElemJam {
		return 0, fmt.Errorf("core: %s is a %s, not a jam", e.Name, e.Kind)
	}
	return mailbox.FrameLen(mailbox.KindInjected, e.Jam.ShippedSize(), usrLen), nil
}

// PackageMagic identifies a serialized package ("TCPK").
const PackageMagic = 0x4b504354

// Encode serializes the package (the install-directory format tcpkg
// writes).
func (p *Package) Encode() []byte {
	w := wire.NewWriter(PackageMagic)
	w.Str(p.Name)
	w.Count(len(p.Elements))
	for _, e := range p.Elements {
		w.U8(e.ID)
		w.U8(uint8(e.Kind))
		w.Str(e.Name)
		switch e.Kind {
		case ElemJam:
			w.Bytes(e.Jam.Encode())
		case ElemRied:
			w.Bytes(e.Ried.Encode())
		}
	}
	if p.LocalLib != nil {
		w.Bytes(p.LocalLib.Encode())
	} else {
		w.Bytes(nil)
	}
	return w
}

// DecodePackage parses a serialized package and every element in it.
// Every failure is a *wire.Error.
func DecodePackage(data []byte) (*Package, error) {
	r := wire.NewReader("core package", PackageMagic, data)
	p := &Package{Name: r.Str("name")}
	p.Elements = wire.Make[*Element](r.Count("element count", 256, 8))
	for i := range p.Elements {
		e := &Element{ID: r.U8("element id"), Kind: ElementKind(r.U8("element kind")), Name: r.Str("element name")}
		raw := r.Bytes("element body")
		var err error
		switch e.Kind {
		case ElemJam:
			e.Jam, err = linker.DecodeJam(raw)
		case ElemRied:
			e.Ried, err = linker.DecodeImage(raw)
		default:
			err = fmt.Errorf("unknown element kind %d", e.Kind)
		}
		if err != nil {
			// Once the reader has failed every later body is nil and
			// fails too; stop rather than allocate errors nobody reads.
			r.Fail("element "+e.Name, err)
			break
		}
		p.Elements[i] = e
	}
	if raw := r.Bytes("local library"); len(raw) > 0 {
		lib, err := linker.DecodeImage(raw)
		r.Fail("local library", err)
		p.LocalLib = lib
	}
	return wire.Finish(r, p)
}
