package linker

import (
	"bytes"
	"fmt"

	"twochains/internal/elfobj"
	"twochains/internal/isa"
	"twochains/internal/wire"
)

// JamMagic identifies a serialized jam ("TCJM").
const JamMagic = 0x4d4a4354

// GotSym is one slot of a jam's travelling GOT table, in slot order.
// External slots are bound by the sender to receiver virtual addresses
// (after the namespace exchange); local slots point back into the jam body
// itself and are bound relative to wherever the code lands.
type GotSym struct {
	Name  string
	Local bool
	Off   uint32 // body-relative target when Local
}

// Jam is a mobile code segment: one function (with its read-only data)
// statically rewritten so all GOT accesses indirect through a pointer
// stored at codeBase-8. The shipped layout inside a message frame is:
//
//	[GOT table: K*8 bytes][GOT pointer: 8 bytes][body: text+rodata]
//
// with the GOT pointer slot immediately before the code, exactly as in
// Fig. 2 of the paper ("the GOT redirect is located just before the code
// in the message, and is set by the sender after an exchange with the
// receiver").
type Jam struct {
	Name    string
	Entry   uint32 // byte offset of the entry point within Body
	TextLen int    // executable prefix of Body; the rest is rodata
	Body    []byte
	Got     []GotSym
}

// GotTableLen returns the size in bytes of the travelling GOT table.
func (j *Jam) GotTableLen() int { return len(j.Got) * 8 }

// ShippedSize returns the number of bytes the jam occupies in a message:
// GOT table + GOT pointer slot + body. This is the paper's "code size when
// shipped" (1408 bytes for Indirect Put).
func (j *Jam) ShippedSize() int { return j.GotTableLen() + 8 + len(j.Body) }

// Externs lists the external symbol names in slot order (duplicates
// removed), the set the sender must resolve on the receiver.
func (j *Jam) Externs() []string {
	var out []string
	for _, g := range j.Got {
		if !g.Local {
			out = append(out, g.Name)
		}
	}
	return out
}

// BuildJam extracts the function entry from a single-source object and
// performs the paper's static GOT transform: every CALLG/LDG (fixed
// PC-relative GOT access, produced by -fno-plt discipline) is rewritten to
// CALLP/LDP (indexed access through a pointer at a fixed location before
// the code), and the function's read-only data is appended to the body so
// the jam is self-contained ("implicitly pulls in read-only data to
// support functions like printf").
//
// Jams must be stateless: objects with .data or .bss, or with load-time
// pointer relocations, are rejected — mutable globals cannot travel.
func BuildJam(obj *elfobj.Object, entry string) (*Jam, error) {
	if err := obj.Validate(); err != nil {
		return nil, err
	}
	if len(obj.Data) > 0 || obj.BssSize > 0 {
		return nil, fmt.Errorf("linker: jam %s: mutable globals (.data/.bss) cannot travel in a message", obj.Name)
	}
	ei := obj.FindSymbol(entry)
	if ei < 0 {
		return nil, fmt.Errorf("linker: jam %s: entry symbol %q not found", obj.Name, entry)
	}
	esym := obj.Symbols[ei]
	if !esym.Defined() || esym.Section != elfobj.SecText {
		return nil, fmt.Errorf("linker: jam %s: entry %q is not a defined function", obj.Name, entry)
	}

	body := make([]byte, 0, len(obj.Text)+len(obj.Rodata))
	body = append(body, obj.Text...)
	rodataOff := len(body) // text is always instruction aligned
	body = append(body, obj.Rodata...)

	j := &Jam{
		Name:    entry,
		Entry:   esym.Value,
		TextLen: len(obj.Text),
		Body:    body,
	}

	// Body-relative offset of a defined symbol.
	bodyOff := func(s elfobj.Symbol) (uint32, error) {
		switch s.Section {
		case elfobj.SecText:
			return s.Value, nil
		case elfobj.SecRodata:
			return uint32(rodataOff) + s.Value, nil
		}
		return 0, fmt.Errorf("linker: jam %s: reference to %s symbol %q", obj.Name, s.Section, s.Name)
	}

	// Slot assignment, deduplicated by name (locals cannot collide with
	// externs inside one object: the assembler rejects that).
	slotIdx := map[string]int{}
	slotFor := func(s elfobj.Symbol) (int, error) {
		if i, ok := slotIdx[s.Name]; ok {
			return i, nil
		}
		g := GotSym{Name: s.Name}
		if s.Defined() {
			off, err := bodyOff(s)
			if err != nil {
				return 0, err
			}
			g.Local = true
			g.Off = off
		}
		slotIdx[s.Name] = len(j.Got)
		j.Got = append(j.Got, g)
		return len(j.Got) - 1, nil
	}

	for _, r := range obj.Relocs {
		switch r.Type {
		case elfobj.RelAbs64:
			return nil, fmt.Errorf("linker: jam %s: absolute pointer relocation cannot travel", obj.Name)
		case elfobj.RelGot:
			if r.Section != elfobj.SecText {
				return nil, fmt.Errorf("linker: jam %s: GOT reloc outside .text", obj.Name)
			}
			in := isa.Decode(j.Body[r.Offset:])
			switch in.Op {
			case isa.CALLG:
				in.Op = isa.CALLP
			case isa.LDG:
				in.Op = isa.LDP
			default:
				return nil, fmt.Errorf("linker: jam %s: GOT reloc on non-GOT instruction %s", obj.Name, in)
			}
			slot, err := slotFor(obj.Symbols[r.Sym])
			if err != nil {
				return nil, err
			}
			in.Imm = int32(slot)
			in.Encode(j.Body[r.Offset:])
		case elfobj.RelLea:
			s := obj.Symbols[r.Sym]
			if !s.Defined() {
				return nil, fmt.Errorf("linker: jam %s: lea of undefined symbol %q", obj.Name, s.Name)
			}
			tgt, err := bodyOff(s)
			if err != nil {
				return nil, err
			}
			in := isa.Decode(j.Body[r.Offset:])
			in.Imm = int32(int(tgt) - int(r.Offset) + int(r.Addend))
			in.Encode(j.Body[r.Offset:])
		case elfobj.RelCall, elfobj.RelBranch:
			// PC-relative within the body: already correct.
		}
	}
	return j, nil
}

// Encode serializes the jam for package installation.
func (j *Jam) Encode() []byte {
	w := wire.NewWriter(JamMagic)
	w.Str(j.Name)
	w.U32(j.Entry)
	w.U32(uint32(j.TextLen))
	w.Bytes(j.Body)
	w.Count(len(j.Got))
	for _, g := range j.Got {
		w.Str(g.Name)
		w.Bool(g.Local)
		w.U32(g.Off)
	}
	return w
}

// DecodeJam parses a serialized jam and checks its text length and entry
// point. Every failure is a *wire.Error.
func DecodeJam(data []byte) (*Jam, error) {
	r := wire.NewReader("linker jam", JamMagic, data)
	j := &Jam{
		Name:    r.Str("name"),
		Entry:   r.U32("entry"),
		TextLen: int(r.U32("text length")),
		Body:    bytes.Clone(r.Bytes("body")),
		Got:     wire.Make[GotSym](r.Count("GOT count", 1<<16, 7)),
	}
	for i := range j.Got {
		j.Got[i] = GotSym{Name: r.Str("GOT name"), Local: r.Bool("GOT local"), Off: r.U32("GOT offset")}
	}
	if j.TextLen > len(j.Body) || j.TextLen%isa.InstrSize != 0 {
		r.Fail("text length", fmt.Errorf("jam %s: bad text length %d", j.Name, j.TextLen))
	}
	if int(j.Entry) >= j.TextLen {
		r.Fail("entry", fmt.Errorf("jam %s: entry %d outside text", j.Name, j.Entry))
	}
	return wire.Finish(r, j)
}
