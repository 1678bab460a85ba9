// Package elfobj defines the relocatable object format produced by the
// Two-Chains toolchain (assembler and AMC compiler) and consumed by the
// linker — the role ELF .o files play in the paper's GNU Binutils flow.
//
// An object holds four sections (.text, .rodata, .data, .bss), a symbol
// table, and relocations. The relocation set mirrors what the paper's
// -fPIC -fno-plt compilation discipline produces:
//
//   - RelCall / RelBranch: PC-relative references to symbols in .text,
//     position independent by construction;
//   - RelLea: PC-relative address formation (string literals, tables);
//   - RelGot: reference to an external symbol through a GOT slot — the
//     only way an object may touch anything outside itself;
//   - RelAbs64: an 8-byte pointer in .data/.rodata resolved at load time.
package elfobj

import (
	"fmt"

	"twochains/internal/wire"
)

// Magic identifies the serialized object format ("TCEO": Two-Chains ELF-
// like Object).
const Magic = 0x4f454354

// Version is the serialization version.
const Version = 1

// SectionID names a section.
type SectionID uint8

const (
	SecNone SectionID = iota
	SecText
	SecRodata
	SecData
	SecBss
)

func (s SectionID) String() string {
	switch s {
	case SecNone:
		return "*UND*"
	case SecText:
		return ".text"
	case SecRodata:
		return ".rodata"
	case SecData:
		return ".data"
	case SecBss:
		return ".bss"
	}
	return fmt.Sprintf("sec(%d)", uint8(s))
}

// Binding is symbol visibility.
type Binding uint8

const (
	BindLocal Binding = iota
	BindGlobal
)

// SymKind distinguishes code from data symbols.
type SymKind uint8

const (
	KindFunc SymKind = iota
	KindObject
)

// Symbol is one symbol-table entry. Undefined symbols (references to other
// modules or to native libraries) have Section == SecNone.
type Symbol struct {
	Name    string
	Section SectionID
	Binding Binding
	Kind    SymKind
	Value   uint32 // offset within Section
	Size    uint32
}

// Defined reports whether the symbol has a definition in this object.
func (s Symbol) Defined() bool { return s.Section != SecNone }

// RelocType enumerates fixup kinds.
type RelocType uint8

const (
	// RelCall patches the imm of a CALL instruction with the PC-relative
	// distance to the symbol, in instruction units.
	RelCall RelocType = iota
	// RelBranch is RelCall for conditional branches and JMP.
	RelBranch
	// RelLea patches the imm of a LEA instruction with the PC-relative
	// distance to the symbol, in bytes.
	RelLea
	// RelGot patches the imm of a CALLG/LDG instruction with the GOT slot
	// index the linker assigns to the symbol.
	RelGot
	// RelAbs64 writes the symbol's load-time VA (+addend) into 8 bytes of
	// a data section; resolved by the loader.
	RelAbs64
)

func (r RelocType) String() string {
	switch r {
	case RelCall:
		return "CALL"
	case RelBranch:
		return "BRANCH"
	case RelLea:
		return "LEA"
	case RelGot:
		return "GOT"
	case RelAbs64:
		return "ABS64"
	}
	return fmt.Sprintf("rel(%d)", uint8(r))
}

// Reloc is one relocation record.
type Reloc struct {
	Type    RelocType
	Section SectionID // section containing the bytes to fix up
	Offset  uint32    // byte offset of the fixup within Section
	Sym     int       // index into Symbols
	Addend  int32
}

// Object is a relocatable translation unit.
type Object struct {
	Name    string // source name, e.g. "jam_sssum.amc"
	Text    []byte
	Rodata  []byte
	Data    []byte
	BssSize uint32
	Symbols []Symbol
	Relocs  []Reloc
}

// Section returns the contents of a progbits section.
func (o *Object) Section(id SectionID) []byte {
	switch id {
	case SecText:
		return o.Text
	case SecRodata:
		return o.Rodata
	case SecData:
		return o.Data
	}
	return nil
}

// SectionSize returns the size of any section including .bss.
func (o *Object) SectionSize(id SectionID) int {
	if id == SecBss {
		return int(o.BssSize)
	}
	return len(o.Section(id))
}

// FindSymbol returns the index of the named symbol, or -1.
func (o *Object) FindSymbol(name string) int {
	for i, s := range o.Symbols {
		if s.Name == name {
			return i
		}
	}
	return -1
}

// Validate checks internal consistency: symbol offsets within sections,
// relocation targets within bounds, symbol indices valid.
func (o *Object) Validate() error {
	if len(o.Name) > wire.MaxStr {
		return fmt.Errorf("elfobj: object name of %d bytes is over the %d a name holds", len(o.Name), wire.MaxStr)
	}
	for i, s := range o.Symbols {
		if s.Name == "" {
			return fmt.Errorf("elfobj %s: symbol %d has empty name", o.Name, i)
		}
		if len(s.Name) > wire.MaxStr {
			return fmt.Errorf("elfobj %s: symbol %d name of %d bytes is over the %d a name holds", o.Name, i, len(s.Name), wire.MaxStr)
		}
		if s.Defined() && int(s.Value) > o.SectionSize(s.Section) {
			return fmt.Errorf("elfobj %s: symbol %q offset %d outside %s (size %d)",
				o.Name, s.Name, s.Value, s.Section, o.SectionSize(s.Section))
		}
	}
	for i, r := range o.Relocs {
		if r.Sym < 0 || r.Sym >= len(o.Symbols) {
			return fmt.Errorf("elfobj %s: reloc %d: bad symbol index %d", o.Name, i, r.Sym)
		}
		sec := o.Section(r.Section)
		if sec == nil {
			return fmt.Errorf("elfobj %s: reloc %d: fixup in %s", o.Name, i, r.Section)
		}
		// Instruction imm fixups patch 4 bytes at Offset+4 of an aligned
		// instruction; an ABS64 pointer is 8 bytes at Offset.
		if r.Type != RelAbs64 && r.Offset%8 != 0 {
			return fmt.Errorf("elfobj %s: reloc %d: %s fixup misaligned at %d",
				o.Name, i, r.Type, r.Offset)
		}
		if int(r.Offset)+8 > len(sec) {
			return fmt.Errorf("elfobj %s: reloc %d: fixup at %d overruns %s (size %d)",
				o.Name, i, r.Offset, r.Section, len(sec))
		}
	}
	if len(o.Text)%8 != 0 {
		return fmt.Errorf("elfobj %s: .text size %d not instruction aligned", o.Name, len(o.Text))
	}
	return nil
}

// Encode serializes the object.
func (o *Object) Encode() []byte {
	w := wire.NewWriter(Magic)
	w.U16(Version)
	w.Str(o.Name)
	w.Bytes(o.Text)
	w.Bytes(o.Rodata)
	w.Bytes(o.Data)
	w.U32(o.BssSize)
	w.Count(len(o.Symbols))
	for _, s := range o.Symbols {
		w.Str(s.Name)
		w.U8(uint8(s.Section))
		w.U8(uint8(s.Binding))
		w.U8(uint8(s.Kind))
		w.U32(s.Value)
		w.U32(s.Size)
	}
	w.Count(len(o.Relocs))
	for _, r := range o.Relocs {
		w.U8(uint8(r.Type))
		w.U8(uint8(r.Section))
		w.U32(r.Offset)
		w.U32(uint32(r.Sym))
		w.U32(uint32(r.Addend))
	}
	return w
}

// Decode parses a serialized object and validates it. Every failure is a
// *wire.Error.
func Decode(data []byte) (*Object, error) {
	r := wire.NewReader("elfobj", Magic, data)
	if v := r.U16("version"); v != Version {
		r.Fail("version", fmt.Errorf("unsupported version %d", v))
	}
	// Appending to nil keeps an empty section nil, as builders leave it.
	o := &Object{
		Name:    r.Str("name"),
		Text:    append([]byte(nil), r.Bytes(".text")...),
		Rodata:  append([]byte(nil), r.Bytes(".rodata")...),
		Data:    append([]byte(nil), r.Bytes(".data")...),
		BssSize: r.U32(".bss size"),
		Symbols: wire.Make[Symbol](r.Count("symbol count", 1<<20, 13)),
	}
	for i := range o.Symbols {
		o.Symbols[i] = Symbol{
			Name:    r.Str("symbol name"),
			Section: SectionID(r.U8("symbol section")),
			Binding: Binding(r.U8("symbol binding")),
			Kind:    SymKind(r.U8("symbol kind")),
			Value:   r.U32("symbol value"),
			Size:    r.U32("symbol size"),
		}
	}
	o.Relocs = wire.Make[Reloc](r.Count("reloc count", 1<<20, 14))
	for i := range o.Relocs {
		o.Relocs[i] = Reloc{
			Type:    RelocType(r.U8("reloc type")),
			Section: SectionID(r.U8("reloc section")),
			Offset:  r.U32("reloc offset"),
			Sym:     int(r.U32("reloc symbol")),
			Addend:  int32(r.U32("reloc addend")),
		}
	}
	r.Fail("object", o.Validate())
	return wire.Finish(r, o)
}
