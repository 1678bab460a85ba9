// Package asm implements the Two-Chains assembler: it translates JAM
// assembly source into relocatable elfobj objects, playing the role of GNU
// as in the paper's toolchain.
//
// Syntax overview (one statement per line, ';', '#' or '//' comments):
//
//	.text / .rodata / .data / .bss   select the active section
//	.global NAME                     export NAME
//	.extern NAME                     declare an undefined external symbol
//	label:                           define a symbol at the current offset
//	.align N                         pad section to N-byte alignment
//	.pad N                           pad .text with NOPs to N total bytes
//	.byte/.half/.word/.quad VALUES   emit data (quad accepts symbol names,
//	                                 producing RelAbs64 relocations)
//	.asciz "s" / .ascii "s"          emit a string (with/without NUL)
//	.space N                         emit N zero bytes (.bss: reserve)
//
// Instructions use the mnemonics of internal/isa. Registers are r0..r15
// with aliases lr (r14) and sp (r15). Memory operands are [rN], [rN+imm],
// [rN-imm]. Branch and call targets are labels defined in the same file;
// external functions must be called through the GOT with callg, matching
// the -fno-plt discipline of the paper's build flow.
package asm

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"twochains/internal/elfobj"
	"twochains/internal/isa"
	"twochains/internal/wire"
)

// Error is an assembly diagnostic with source position.
type Error struct {
	File string
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Msg) }

type section struct {
	id   elfobj.SectionID
	data []byte
	size int // for bss, bytes reserved
}

type pendingInstr struct {
	line    int
	in      isa.Instr
	off     int    // byte offset in .text
	refKind refK   // what the symbol operand means
	refSym  string // symbol operand, if any
}

type refK int

const (
	refNone refK = iota
	refBranch
	refCall
	refLea
	refGot
)

// A label is a symbol this file defines, at off in section sec.
type label struct {
	sec elfobj.SectionID
	off int
}

// A dataRel is a .quad naming a symbol: a RelAbs64 fixup at off in sec.
type dataRel struct {
	line int
	sec  elfobj.SectionID
	off  int
	sym  string
}

type asmState struct {
	file       string
	cur        *section
	text       section
	rodata     section
	data       section
	bss        section
	labels     map[string]label
	globals    map[string]bool
	externs    map[string]bool
	instrs     []pendingInstr
	dataRel    []dataRel
	labelOrder []string
}

// Assemble translates src into a relocatable object named name.
func Assemble(name, src string) (*elfobj.Object, error) {
	st := &asmState{
		file:    name,
		text:    section{id: elfobj.SecText},
		rodata:  section{id: elfobj.SecRodata},
		data:    section{id: elfobj.SecData},
		bss:     section{id: elfobj.SecBss},
		labels:  map[string]label{},
		globals: map[string]bool{},
		externs: map[string]bool{},
	}
	st.cur = &st.text

	for i, raw := range strings.Split(src, "\n") {
		line := i + 1
		if err := st.doLine(line, raw); err != nil {
			return nil, err
		}
	}
	return st.finish()
}

func (st *asmState) errf(line int, format string, args ...any) error {
	return &Error{File: st.file, Line: line, Msg: fmt.Sprintf(format, args...)}
}

func stripComment(s string) string {
	// Respect quotes so ';' inside strings survives.
	inStr := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '"' && (i == 0 || s[i-1] != '\\') {
			inStr = !inStr
		}
		if inStr {
			continue
		}
		if c == ';' || c == '#' {
			return s[:i]
		}
		if c == '/' && i+1 < len(s) && s[i+1] == '/' {
			return s[:i]
		}
	}
	return s
}

func (st *asmState) doLine(line int, raw string) error {
	s := strings.TrimSpace(stripComment(raw))
	if s == "" {
		return nil
	}
	// Labels (possibly followed by more on the same line).
	for {
		idx := strings.Index(s, ":")
		if idx < 0 {
			break
		}
		head := strings.TrimSpace(s[:idx])
		if !isIdent(head) {
			break
		}
		if err := st.defineLabel(line, head); err != nil {
			return err
		}
		s = strings.TrimSpace(s[idx+1:])
		if s == "" {
			return nil
		}
	}
	if strings.HasPrefix(s, ".") {
		return st.doDirective(line, s)
	}
	return st.doInstr(line, s)
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '.':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// checkName refuses a symbol name wire.Writer.Str cannot encode.
func (st *asmState) checkName(line int, name string) error {
	if len(name) > wire.MaxStr {
		return st.errf(line, "symbol name of %d bytes is over the %d a name holds", len(name), wire.MaxStr)
	}
	return nil
}

func (st *asmState) defineLabel(line int, name string) error {
	if err := st.checkName(line, name); err != nil {
		return err
	}
	if _, dup := st.labels[name]; dup {
		return st.errf(line, "label %q redefined", name)
	}
	st.labels[name] = label{st.cur.id, st.curSize()}
	st.labelOrder = append(st.labelOrder, name)
	return nil
}

func (st *asmState) doDirective(line int, s string) error {
	fields := splitOperands(s)
	dir := fields[0]
	args := fields[1:]
	switch dir {
	case ".text":
		st.cur = &st.text
	case ".rodata":
		st.cur = &st.rodata
	case ".data":
		st.cur = &st.data
	case ".bss":
		st.cur = &st.bss
	case ".global", ".globl":
		if len(args) != 1 || !isIdent(args[0]) {
			return st.errf(line, "%s wants one symbol", dir)
		}
		st.globals[args[0]] = true
	case ".extern":
		if len(args) != 1 || !isIdent(args[0]) {
			return st.errf(line, ".extern wants one symbol")
		}
		if err := st.checkName(line, args[0]); err != nil {
			return err
		}
		st.externs[args[0]] = true
	case ".align":
		n, err := parseInt(args, 0)
		if err != nil || n <= 0 || n&(n-1) != 0 {
			return st.errf(line, ".align wants a positive power of two")
		}
		target := alignUp(st.curSize(), int(n))
		if err := st.fits(line, int64(target-st.curSize())); err != nil {
			return err
		}
		st.padTo(target)
	case ".pad":
		n, err := parseInt(args, 0)
		if err != nil || n < 0 {
			return st.errf(line, ".pad wants a byte count")
		}
		if st.cur.id != elfobj.SecText {
			return st.errf(line, ".pad is only valid in .text")
		}
		if int(n)%isa.InstrSize != 0 {
			return st.errf(line, ".pad target %d not instruction aligned", n)
		}
		if len(st.text.data) > int(n) {
			return st.errf(line, ".pad target %d smaller than current text size %d", n, len(st.text.data))
		}
		if err := st.fits(line, n-int64(len(st.text.data))); err != nil {
			return err
		}
		for len(st.text.data) < int(n) {
			st.text.data = append(st.text.data, isa.Instr{Op: isa.NOP}.Bytes()...)
		}
	case ".byte", ".half", ".word", ".quad":
		return st.doEmit(line, dir, args)
	case ".ascii", ".asciz":
		return st.doString(line, dir, s)
	case ".space":
		n, err := parseInt(args, 0)
		if err != nil || n < 0 {
			return st.errf(line, ".space wants a byte count")
		}
		if err := st.fits(line, n); err != nil {
			return err
		}
		if st.cur.id == elfobj.SecBss {
			st.cur.size += int(n)
		} else {
			st.cur.data = append(st.cur.data, make([]byte, n)...)
		}
	default:
		return st.errf(line, "unknown directive %s", dir)
	}
	return nil
}

// maxSection caps a file-backed section, which is allocated as it grows;
// .bss is only reserved, up to the object format's 32-bit size.
const maxSection = 16 << 20

// fits refuses growing the current section by n bytes past its cap.
func (st *asmState) fits(line int, n int64) error {
	limit := int64(maxSection)
	if st.cur.id == elfobj.SecBss {
		limit = math.MaxUint32
	}
	if n > limit-int64(st.curSize()) {
		return st.errf(line, "%s would grow past %d bytes", st.cur.id, limit)
	}
	return nil
}

func (st *asmState) curSize() int {
	if st.cur.id == elfobj.SecBss {
		return st.cur.size
	}
	return len(st.cur.data)
}

func (st *asmState) padTo(n int) {
	if st.cur.id == elfobj.SecBss {
		if st.cur.size < n {
			st.cur.size = n
		}
		return
	}
	for len(st.cur.data) < n {
		st.cur.data = append(st.cur.data, 0)
	}
}

func alignUp(v, a int) int { return (v + a - 1) / a * a }

func (st *asmState) doEmit(line int, dir string, args []string) error {
	if st.cur.id == elfobj.SecBss {
		return st.errf(line, "%s not allowed in .bss", dir)
	}
	width := map[string]int{".byte": 1, ".half": 2, ".word": 4, ".quad": 8}[dir]
	for _, a := range args {
		if v, err := parseNum(a); err == nil {
			for i := 0; i < width; i++ {
				st.cur.data = append(st.cur.data, byte(uint64(v)>>(8*i)))
			}
			continue
		}
		if isIdent(a) {
			if width != 8 {
				return st.errf(line, "symbol reference requires .quad, got %s", dir)
			}
			st.dataRel = append(st.dataRel, dataRel{line, st.cur.id, len(st.cur.data), a})
			st.cur.data = append(st.cur.data, make([]byte, 8)...)
			continue
		}
		return st.errf(line, "bad %s operand %q", dir, a)
	}
	return nil
}

func (st *asmState) doString(line int, dir, full string) error {
	if st.cur.id == elfobj.SecBss {
		return st.errf(line, "%s not allowed in .bss", dir)
	}
	i := strings.Index(full, "\"")
	j := strings.LastIndex(full, "\"")
	if i < 0 || j <= i {
		return st.errf(line, "%s wants a quoted string", dir)
	}
	unq, err := strconv.Unquote(full[i : j+1])
	if err != nil {
		return st.errf(line, "bad string literal: %v", err)
	}
	st.cur.data = append(st.cur.data, unq...)
	if dir == ".asciz" {
		st.cur.data = append(st.cur.data, 0)
	}
	return nil
}

// splitOperands splits "op a, b, c" into ["op", "a", "b", "c"],
// keeping bracketed memory operands intact.
func splitOperands(s string) []string {
	var out []string
	s = strings.TrimSpace(s)
	sp := strings.IndexAny(s, " \t")
	if sp < 0 {
		return []string{s}
	}
	out = append(out, s[:sp])
	rest := strings.TrimSpace(s[sp+1:])
	if rest == "" {
		return out
	}
	for _, part := range strings.Split(rest, ",") {
		out = append(out, strings.TrimSpace(part))
	}
	return out
}

func parseReg(s string) (uint8, bool) {
	switch s {
	case "sp":
		return isa.RegSP, true
	case "lr":
		return isa.RegLR, true
	}
	if len(s) < 2 || (s[0] != 'r' && s[0] != 'R') {
		return 0, false
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= isa.NumRegs {
		return 0, false
	}
	return uint8(n), true
}

func parseNum(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if len(s) >= 3 && s[0] == '\'' && s[len(s)-1] == '\'' {
		unq, err := strconv.Unquote(s)
		if err != nil || len(unq) != 1 {
			return 0, fmt.Errorf("bad char literal %q", s)
		}
		return int64(unq[0]), nil
	}
	return strconv.ParseInt(s, 0, 64)
}

func parseInt(args []string, i int) (int64, error) {
	if i >= len(args) {
		return 0, fmt.Errorf("missing operand")
	}
	return parseNum(args[i])
}

// parseMem parses "[rN]", "[rN+k]", "[rN-k]".
func parseMem(s string) (reg uint8, off int32, ok bool) {
	if len(s) < 3 || s[0] != '[' || s[len(s)-1] != ']' {
		return 0, 0, false
	}
	inner := s[1 : len(s)-1]
	sep := strings.IndexAny(inner, "+-")
	regPart, offPart := inner, ""
	if sep > 0 {
		regPart, offPart = inner[:sep], inner[sep:]
	}
	r, rok := parseReg(strings.TrimSpace(regPart))
	if !rok {
		return 0, 0, false
	}
	if offPart == "" {
		return r, 0, true
	}
	v, err := parseNum(offPart)
	if err != nil {
		return 0, 0, false
	}
	return r, int32(v), true
}

func (st *asmState) doInstr(line int, s string) error {
	if st.cur.id != elfobj.SecText {
		return st.errf(line, "instruction outside .text")
	}
	fields := splitOperands(s)
	op, ok := isa.ByName(fields[0])
	if !ok {
		return st.errf(line, "unknown mnemonic %q", fields[0])
	}
	info, _ := isa.Lookup(op)
	args := fields[1:]
	in := isa.Instr{Op: op}
	ref := refNone
	refSym := ""

	need := func(n int) error {
		if len(args) != n {
			return st.errf(line, "%s wants %d operands, got %d", info.Name, n, len(args))
		}
		return nil
	}
	reg := func(i int) (uint8, error) {
		r, ok := parseReg(args[i])
		if !ok {
			return 0, st.errf(line, "%s: bad register %q", info.Name, args[i])
		}
		return r, nil
	}

	var err error
	switch info.Kind {
	case isa.OperNone:
		err = need(0)
	case isa.OperRdImm:
		if err = need(2); err == nil {
			if in.Rd, err = reg(0); err == nil {
				if v, e := parseNum(args[1]); e == nil {
					in.Imm = int32(v)
				} else if op == isa.LEA && isIdent(args[1]) {
					ref, refSym = refLea, args[1]
				} else {
					err = st.errf(line, "%s: bad immediate %q", info.Name, args[1])
				}
			}
		}
	case isa.OperRdRs1:
		if err = need(2); err == nil {
			if in.Rd, err = reg(0); err == nil {
				in.Rs1, err = reg(1)
			}
		}
	case isa.OperRdRs1Rs2:
		if err = need(3); err == nil {
			if in.Rd, err = reg(0); err == nil {
				if in.Rs1, err = reg(1); err == nil {
					in.Rs2, err = reg(2)
				}
			}
		}
	case isa.OperRdRs1Imm:
		if err = need(3); err == nil {
			if in.Rd, err = reg(0); err == nil {
				if in.Rs1, err = reg(1); err == nil {
					v, e := parseNum(args[2])
					if e != nil {
						err = st.errf(line, "%s: bad immediate %q", info.Name, args[2])
					} else {
						in.Imm = int32(v)
					}
				}
			}
		}
	case isa.OperMemLoad, isa.OperMemStore:
		if err = need(2); err == nil {
			if in.Rd, err = reg(0); err == nil {
				r, off, ok := parseMem(args[1])
				if !ok {
					err = st.errf(line, "%s: bad memory operand %q", info.Name, args[1])
				} else {
					in.Rs1, in.Imm = r, off
				}
			}
		}
	case isa.OperBranch:
		if err = need(3); err == nil {
			if in.Rs1, err = reg(0); err == nil {
				if in.Rs2, err = reg(1); err == nil {
					if isIdent(args[2]) {
						ref, refSym = refBranch, args[2]
					} else if v, e := parseNum(args[2]); e == nil {
						in.Imm = int32(v)
					} else {
						err = st.errf(line, "%s: bad target %q", info.Name, args[2])
					}
				}
			}
		}
	case isa.OperJump:
		if err = need(1); err == nil {
			if isIdent(args[0]) {
				if op == isa.CALL {
					ref, refSym = refCall, args[0]
				} else {
					ref, refSym = refBranch, args[0]
				}
			} else if v, e := parseNum(args[0]); e == nil {
				in.Imm = int32(v)
			} else {
				err = st.errf(line, "%s: bad target %q", info.Name, args[0])
			}
		}
	case isa.OperCallReg:
		if err = need(1); err == nil {
			in.Rs1, err = reg(0)
		}
	case isa.OperGotCall:
		if err = need(1); err == nil {
			if !isIdent(args[0]) {
				err = st.errf(line, "%s: bad symbol %q", info.Name, args[0])
			} else {
				ref, refSym = refGot, args[0]
			}
		}
	case isa.OperGotLoad:
		if err = need(2); err == nil {
			if in.Rd, err = reg(0); err == nil {
				if !isIdent(args[1]) {
					err = st.errf(line, "%s: bad symbol %q", info.Name, args[1])
				} else {
					ref, refSym = refGot, args[1]
				}
			}
		}
	}
	if err != nil {
		return err
	}

	st.instrs = append(st.instrs, pendingInstr{
		line: line, in: in, off: len(st.text.data), refKind: ref, refSym: refSym,
	})
	st.text.data = append(st.text.data, in.Bytes()...)
	return nil
}

// finish resolves label references and builds the object.
func (st *asmState) finish() (*elfobj.Object, error) {
	o := &elfobj.Object{
		Name:    st.file,
		Text:    st.text.data,
		Rodata:  st.rodata.data,
		Data:    st.data.data,
		BssSize: uint32(st.bss.size),
	}

	symIdx := map[string]int{}
	addSym := func(s elfobj.Symbol) int {
		if i, ok := symIdx[s.Name]; ok {
			return i
		}
		o.Symbols = append(o.Symbols, s)
		symIdx[s.Name] = len(o.Symbols) - 1
		return len(o.Symbols) - 1
	}

	// Defined symbols first, in declaration order.
	for _, name := range st.labelOrder {
		addSym(symbolFor(st, name))
	}
	// Globals that were exported but never defined are an error.
	for g := range st.globals {
		if _, ok := st.labels[g]; !ok {
			return nil, &Error{File: st.file, Line: 0, Msg: fmt.Sprintf(".global %s never defined", g)}
		}
	}
	// Externs.
	for e := range st.externs {
		if _, ok := st.labels[e]; ok {
			return nil, &Error{File: st.file, Line: 0, Msg: fmt.Sprintf("%s declared .extern but defined locally", e)}
		}
	}

	// Resolve instruction references.
	for _, pi := range st.instrs {
		if pi.refKind == refNone {
			continue
		}
		lbl, defined := st.labels[pi.refSym]
		in := pi.in
		switch pi.refKind {
		case refBranch, refCall:
			if !defined {
				return nil, st.errf(pi.line, "undefined label %q (external functions must use callg)", pi.refSym)
			}
			if lbl.sec != elfobj.SecText {
				return nil, st.errf(pi.line, "branch target %q is not in .text", pi.refSym)
			}
			in.Imm = int32((lbl.off - pi.off) / isa.InstrSize)
		case refLea:
			if !defined {
				return nil, st.errf(pi.line, "lea of undefined symbol %q (use ldg for externals)", pi.refSym)
			}
			// PC-relative byte distance; final layout distance is fixed at
			// link time, so emit a RelLea for the linker.
			si := addSym(symbolFor(st, pi.refSym))
			o.Relocs = append(o.Relocs, elfobj.Reloc{
				Type: elfobj.RelLea, Section: elfobj.SecText,
				Offset: uint32(pi.off), Sym: si,
			})
		case refGot:
			var si int
			if defined {
				si = addSym(symbolFor(st, pi.refSym))
			} else {
				if !st.externs[pi.refSym] {
					return nil, st.errf(pi.line, "GOT reference to %q which is neither defined nor .extern", pi.refSym)
				}
				si = addSym(elfobj.Symbol{Name: pi.refSym, Section: elfobj.SecNone, Binding: elfobj.BindGlobal})
			}
			o.Relocs = append(o.Relocs, elfobj.Reloc{
				Type: elfobj.RelGot, Section: elfobj.SecText,
				Offset: uint32(pi.off), Sym: si,
			})
		}
		in.Encode(o.Text[pi.off:])
	}

	// Data relocations.
	for _, dr := range st.dataRel {
		var si int
		if _, defined := st.labels[dr.sym]; defined {
			si = addSym(symbolFor(st, dr.sym))
		} else if st.externs[dr.sym] {
			si = addSym(elfobj.Symbol{Name: dr.sym, Section: elfobj.SecNone, Binding: elfobj.BindGlobal})
		} else {
			return nil, st.errf(dr.line, ".quad of undefined symbol %q", dr.sym)
		}
		o.Relocs = append(o.Relocs, elfobj.Reloc{
			Type: elfobj.RelAbs64, Section: dr.sec,
			Offset: uint32(dr.off), Sym: si,
		})
	}

	// Remaining externs that were declared but never referenced: keep them
	// out of the symbol table; a reference is what creates the entry.

	if err := o.Validate(); err != nil {
		return nil, &Error{File: st.file, Msg: err.Error()}
	}
	return o, nil
}

func symbolFor(st *asmState, name string) elfobj.Symbol {
	l := st.labels[name]
	bind := elfobj.BindLocal
	if st.globals[name] {
		bind = elfobj.BindGlobal
	}
	kind := elfobj.KindObject
	if l.sec == elfobj.SecText {
		kind = elfobj.KindFunc
	}
	return elfobj.Symbol{Name: name, Section: l.sec, Binding: bind, Kind: kind, Value: uint32(l.off)}
}
