package amcc

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"twochains/internal/asm"
	"twochains/internal/elfobj"
)

// CompileToAsm translates an AMC translation unit to JAM assembly text.
func CompileToAsm(file, src string) (string, error) {
	u, err := parse(file, src)
	if err != nil {
		return "", err
	}
	g := &codegen{u: u}
	return g.run()
}

// Compile translates AMC source all the way to a relocatable object.
func Compile(file, src string) (*elfobj.Object, error) {
	text, err := CompileToAsm(file, src)
	if err != nil {
		return nil, err
	}
	obj, err := asm.Assemble(file, text)
	if err != nil {
		// Generated assembly failing to assemble is a compiler bug.
		return nil, fmt.Errorf("amcc: internal error: generated assembly rejected: %w", err)
	}
	return obj, nil
}

// scratch registers available to the expression evaluator (r0-r2 carry the
// handler arguments / call arguments, r14 is LR, r15 is SP).
var scratchRegs = []int{3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}

type codegen struct {
	u      *unit
	out    strings.Builder
	labelN int

	frame    int
	spOff    int // static SP displacement below the frame base
	retLabel string
	inUse    []int // allocated scratch registers, LIFO
	breakL   []string
	contL    []string
	externs  map[string]bool
	strLbl   map[string]string
	compErr  error
}

func (g *codegen) errf(line int, format string, args ...any) {
	if g.compErr == nil {
		g.compErr = &Error{File: g.u.file, Line: line, Msg: fmt.Sprintf(format, args...)}
	}
}

func (g *codegen) emit(format string, args ...any) {
	fmt.Fprintf(&g.out, format+"\n", args...)
}

func (g *codegen) label(prefix string) string {
	g.labelN++
	return fmt.Sprintf(".L%s%d", prefix, g.labelN)
}

// --- register stack ---

func (g *codegen) alloc(line int) int {
	if len(g.inUse) >= len(scratchRegs) {
		g.errf(line, "expression too complex (out of scratch registers)")
		return scratchRegs[len(scratchRegs)-1]
	}
	r := scratchRegs[len(g.inUse)]
	g.inUse = append(g.inUse, r)
	return r
}

func (g *codegen) release(r int) {
	if len(g.inUse) == 0 || g.inUse[len(g.inUse)-1] != r {
		if g.compErr != nil {
			// Error paths bail out of evaluation early; bookkeeping is
			// best-effort once a diagnostic is latched.
			return
		}
		// LIFO discipline violated. No source reaches this: every
		// generator releases the registers it allocated in reverse order
		// on each path that has not latched a diagnostic (FuzzCompile
		// checks it from arbitrary source), so it is a codegen bug, and
		// panicking beats emitting code that clobbers a live value.
		panic(fmt.Sprintf("amcc: scratch release out of order (r%d, stack %v)", r, g.inUse))
	}
	g.inUse = g.inUse[:len(g.inUse)-1]
}

// push spills a register below the frame, tracking the SP displacement so
// local-variable slot offsets stay correct while it is outstanding.
func (g *codegen) push(r int) {
	g.emit("    addi sp, sp, -8")
	g.emit("    st   r%d, [sp+0]", r)
	g.spOff += 8
}

// pop undoes a push into the given register.
func (g *codegen) pop(r int) {
	g.emit("    ld   r%d, [sp+0]", r)
	g.emit("    addi sp, sp, 8")
	g.spOff -= 8
}

// --- driver ---

func (g *codegen) run() (string, error) {
	g.externs = map[string]bool{}
	g.strLbl = map[string]string{}

	g.emit(".text")
	for _, fn := range g.u.funcs {
		g.genFunc(fn)
		if g.compErr != nil {
			return "", g.compErr
		}
	}

	// Externs actually referenced.
	var exts []string
	for name := range g.externs {
		exts = append(exts, name)
	}
	sort.Strings(exts)
	for _, name := range exts {
		g.emit(".extern %s", name)
	}

	// String pool.
	if len(g.u.strs) > 0 {
		g.emit(".rodata")
		for _, s := range g.u.strs {
			g.emit("%s:", g.strLbl[s])
			g.emit("    .asciz %q", s)
		}
	}

	// Globals (rieds): initialized to .data, zero to .bss.
	var datas, bsses []*globalDef
	for _, gd := range g.u.globals {
		if gd.init != nil {
			datas = append(datas, gd)
		} else {
			bsses = append(bsses, gd)
		}
	}
	if len(datas) > 0 {
		g.emit(".data")
		for _, gd := range datas {
			g.emit(".global %s", gd.name)
			g.emit("%s:", gd.name)
			g.emit("    .quad %d", *gd.init)
		}
	}
	if len(bsses) > 0 {
		g.emit(".bss")
		// An object's .bss size is 32 bits wide; a length past it (or one
		// that parsed negative from a 64-bit hex constant) is a diagnostic,
		// not a negative .space the assembler rejects or a size it
		// truncates.
		var total int64
		for _, gd := range bsses {
			if gd.count < 0 || gd.count > (math.MaxUint32-total)/gd.elem {
				g.errf(gd.line, "array %q does not fit the 4 GiB .bss", gd.name)
				return "", g.compErr
			}
			total += gd.count * gd.elem
			g.emit(".global %s", gd.name)
			g.emit("%s:", gd.name)
			g.emit("    .space %d", gd.count*gd.elem)
		}
	}
	return g.out.String(), nil
}

// slotOff returns the current sp-relative offset of a local, accounting
// for any temporary stack pushes the code generator has emitted (argument
// parking and live-register saves move SP below the frame base).
func (g *codegen) slotOff(v *localVar) int { return v.offset + g.spOff }

func (g *codegen) genFunc(fn *function) {
	// Frame: [0]=LR, then one 8-byte slot per local (params included).
	for i, v := range fn.locals {
		v.offset = 8 * (1 + i)
	}
	g.frame = 8 * (1 + len(fn.locals))
	if g.frame%16 != 0 {
		g.frame += 8
	}

	g.spOff = 0
	g.emit(".global %s", fn.name)
	g.emit("%s:", fn.name)
	g.emit("    addi sp, sp, -%d", g.frame)
	g.emit("    st   lr, [sp+0]")
	for i, prm := range fn.params {
		g.emit("    st   r%d, [sp+%d]", i, g.slotOff(prm))
	}
	retL := g.label("ret")
	g.retLabel = retL
	g.genStmt(fn.body)
	g.emit("%s:", retL)
	g.emit("    ld   lr, [sp+0]")
	g.emit("    addi sp, sp, %d", g.frame)
	g.emit("    ret")
	if len(g.inUse) != 0 {
		if g.compErr == nil {
			// Unreachable from source for the reason release gives: a
			// statement releases what its expressions allocated.
			panic(fmt.Sprintf("amcc: scratch registers leaked in %s: %v", fn.name, g.inUse))
		}
		g.inUse = g.inUse[:0]
	}
}

// --- statements ---

func (g *codegen) genStmt(s *stmt) {
	if g.compErr != nil {
		return
	}
	switch s.kind {
	case stBlock:
		for _, inner := range s.stmts {
			g.genStmt(inner)
		}
	case stExpr:
		r, _ := g.genExpr(s.expr)
		g.release(r)
	case stDecl:
		if s.expr != nil {
			r, _ := g.genExpr(s.expr)
			g.emit("    st   r%d, [sp+%d]", r, g.slotOff(s.local))
			g.release(r)
		} else {
			r := g.alloc(s.line)
			g.emit("    movi r%d, 0", r)
			g.emit("    st   r%d, [sp+%d]", r, g.slotOff(s.local))
			g.release(r)
		}
	case stReturn:
		if s.expr != nil {
			r, _ := g.genExpr(s.expr)
			g.emit("    mov  r0, r%d", r)
			g.release(r)
		}
		g.emit("    jmp  %s", g.retLabel)
	case stIf:
		elseL, endL := g.label("else"), g.label("endif")
		g.genBranchIfZero(s.cond, elseL)
		g.genStmt(s.body)
		if s.alt != nil {
			g.emit("    jmp  %s", endL)
		}
		g.emit("%s:", elseL)
		if s.alt != nil {
			g.genStmt(s.alt)
			g.emit("%s:", endL)
		}
	case stWhile:
		condL, endL := g.label("while"), g.label("wend")
		g.breakL = append(g.breakL, endL)
		g.contL = append(g.contL, condL)
		g.emit("%s:", condL)
		g.genBranchIfZero(s.cond, endL)
		g.genStmt(s.body)
		g.emit("    jmp  %s", condL)
		g.emit("%s:", endL)
		g.breakL = g.breakL[:len(g.breakL)-1]
		g.contL = g.contL[:len(g.contL)-1]
	case stFor:
		condL, contL, endL := g.label("for"), g.label("fcont"), g.label("fend")
		if s.init != nil {
			g.genStmt(s.init)
		}
		g.breakL = append(g.breakL, endL)
		g.contL = append(g.contL, contL)
		g.emit("%s:", condL)
		if s.cond != nil {
			g.genBranchIfZero(s.cond, endL)
		}
		g.genStmt(s.body)
		g.emit("%s:", contL)
		if s.post != nil {
			g.genStmt(s.post)
		}
		g.emit("    jmp  %s", condL)
		g.emit("%s:", endL)
		g.breakL = g.breakL[:len(g.breakL)-1]
		g.contL = g.contL[:len(g.contL)-1]
	case stBreak:
		if len(g.breakL) == 0 {
			g.errf(s.line, "break outside a loop")
			return
		}
		g.emit("    jmp  %s", g.breakL[len(g.breakL)-1])
	case stContinue:
		if len(g.contL) == 0 {
			g.errf(s.line, "continue outside a loop")
			return
		}
		g.emit("    jmp  %s", g.contL[len(g.contL)-1])
	}
}

// genBranchIfZero evaluates cond and branches to target when it is zero.
func (g *codegen) genBranchIfZero(cond *expr, target string) {
	r, _ := g.genExpr(cond)
	z := g.alloc(cond.line)
	g.emit("    movi r%d, 0", z)
	g.emit("    beq  r%d, r%d, %s", r, z, target)
	g.release(z)
	g.release(r)
}

// --- expressions ---

// genExpr evaluates e into a freshly allocated scratch register.
func (g *codegen) genExpr(e *expr) (int, Type) {
	if g.compErr != nil {
		return scratchRegs[0], TypeLong
	}
	switch e.kind {
	case exNum:
		r := g.alloc(e.line)
		g.loadConst(r, e.num)
		return r, TypeLong

	case exStr:
		lbl, ok := g.strLbl[e.str]
		if !ok {
			lbl = g.label("str")
			g.strLbl[e.str] = lbl
			g.u.strs = append(g.u.strs, e.str)
		}
		r := g.alloc(e.line)
		g.emit("    lea  r%d, %s", r, lbl)
		return r, TypePtrByte

	case exVar:
		r := g.alloc(e.line)
		g.emit("    ld   r%d, [sp+%d]", r, g.slotOff(e.local))
		return r, e.local.typ

	case exGlobal:
		sym, ok := g.u.syms[e.name]
		if !ok {
			g.errf(e.line, "undeclared identifier %q", e.name)
			return g.alloc(e.line), TypeLong
		}
		if sym.isFunc {
			g.errf(e.line, "function %q used as a value (function pointers are not supported)", e.name)
			return g.alloc(e.line), TypeLong
		}
		if sym.isExtern {
			g.externs[e.name] = true
		}
		r := g.alloc(e.line)
		g.emit("    ldg  r%d, %s", r, e.name)
		return r, sym.typ

	case exUnary:
		r, t := g.genExpr(e.lhs)
		switch e.op {
		case "-":
			g.emit("    muli r%d, r%d, -1", r, r)
		case "~":
			g.emit("    xori r%d, r%d, -1", r, r)
		case "!":
			z := g.alloc(e.line)
			g.emit("    movi r%d, 0", z)
			g.emit("    seq  r%d, r%d, r%d", r, r, z)
			g.release(z)
		}
		_ = t
		return r, TypeLong

	case exDeref:
		r, t := g.genExpr(e.lhs)
		if !t.isPtr() {
			g.errf(e.line, "dereference of non-pointer")
		}
		if t == TypePtrByte {
			g.emit("    ldb  r%d, [r%d+0]", r, r)
		} else {
			g.emit("    ld   r%d, [r%d+0]", r, r)
		}
		return r, TypeLong

	case exAddr:
		r := g.alloc(e.line)
		g.emit("    addi r%d, sp, %d", r, g.slotOff(e.lhs.local))
		return r, TypePtrLong

	case exIndex:
		addr, width := g.genAddrIndex(e)
		if width == 1 {
			g.emit("    ldb  r%d, [r%d+0]", addr, addr)
		} else {
			g.emit("    ld   r%d, [r%d+0]", addr, addr)
		}
		return addr, TypeLong

	case exBinary:
		return g.genBinary(e)

	case exAssign:
		return g.genAssign(e)

	case exCall:
		return g.genCall(e)

	case exCond:
		return g.genShortCircuit(e)
	}
	g.errf(e.line, "internal: unhandled expression kind %d", e.kind)
	return g.alloc(e.line), TypeLong
}

func (g *codegen) loadConst(r int, v int64) {
	if v >= -(1<<31) && v < (1<<31) {
		g.emit("    movi r%d, %d", r, v)
		return
	}
	g.emit("    movi  r%d, %d", r, int32(uint32(uint64(v))))
	g.emit("    moviu r%d, %d", r, int32(uint32(uint64(v)>>32)))
}

// genAddrIndex computes the address of base[idx] and returns the register
// holding it plus the element width.
func (g *codegen) genAddrIndex(e *expr) (int, int64) {
	base, bt := g.genExpr(e.lhs)
	if !bt.isPtr() {
		g.errf(e.line, "indexing a non-pointer")
		bt = TypePtrLong
	}
	idx, _ := g.genExpr(e.rhs)
	if bt.elemSize() == 8 {
		g.emit("    shli r%d, r%d, 3", idx, idx)
	}
	g.emit("    add  r%d, r%d, r%d", base, base, idx)
	g.release(idx)
	return base, bt.elemSize()
}

// genAddr computes the address (and width) of an lvalue.
func (g *codegen) genAddr(e *expr) (int, int64) {
	switch e.kind {
	case exVar:
		r := g.alloc(e.line)
		g.emit("    addi r%d, sp, %d", r, g.slotOff(e.local))
		return r, 8
	case exDeref:
		r, t := g.genExpr(e.lhs)
		if !t.isPtr() {
			g.errf(e.line, "dereference of non-pointer")
			t = TypePtrLong
		}
		return r, t.elemSize()
	case exIndex:
		return g.genAddrIndex(e)
	}
	g.errf(e.line, "internal: not an lvalue")
	return g.alloc(e.line), 8
}

func (g *codegen) genAssign(e *expr) (int, Type) {
	// Evaluate the value first so the address register is on top of the
	// LIFO stack when released.
	v, vt := g.genExpr(e.rhs)
	addr, width := g.genAddr(e.lhs)
	if width == 1 {
		g.emit("    stb  r%d, [r%d+0]", v, addr)
	} else {
		g.emit("    st   r%d, [r%d+0]", v, addr)
	}
	g.release(addr)
	return v, vt
}

func (g *codegen) genBinary(e *expr) (int, Type) {
	l, lt := g.genExpr(e.lhs)
	r, rt := g.genExpr(e.rhs)
	resT := TypeLong

	switch e.op {
	case "+", "-":
		// Pointer arithmetic scales the integer side.
		if lt.isPtr() && !rt.isPtr() {
			if lt.elemSize() == 8 {
				g.emit("    shli r%d, r%d, 3", r, r)
			}
			resT = lt
		} else if !lt.isPtr() && rt.isPtr() && e.op == "+" {
			if rt.elemSize() == 8 {
				g.emit("    shli r%d, r%d, 3", l, l)
			}
			resT = rt
		}
		op := "add"
		if e.op == "-" {
			op = "sub"
		}
		g.emit("    %s  r%d, r%d, r%d", op, l, l, r)
		if lt.isPtr() && rt.isPtr() && e.op == "-" {
			if lt.elemSize() == 8 {
				g.emit("    shri r%d, r%d, 3", l, l)
			}
			resT = TypeLong
		}
	case "==":
		g.emit("    seq  r%d, r%d, r%d", l, l, r)
	case "!=":
		g.emit("    seq  r%d, r%d, r%d", l, l, r)
		g.emit("    xori r%d, r%d, 1", l, l)
	case "<", ">", "<=", ">=":
		cmp := "slt"
		if lt.isPtr() || rt.isPtr() {
			cmp = "sltu"
		}
		switch e.op {
		case "<":
			g.emit("    %s r%d, r%d, r%d", cmp, l, l, r)
		case ">":
			g.emit("    %s r%d, r%d, r%d", cmp, l, r, l)
		case "<=": // !(r < l)
			g.emit("    %s r%d, r%d, r%d", cmp, l, r, l)
			g.emit("    xori r%d, r%d, 1", l, l)
		case ">=": // !(l < r)
			g.emit("    %s r%d, r%d, r%d", cmp, l, l, r)
			g.emit("    xori r%d, r%d, 1", l, l)
		}
	default:
		if mn, ok := regOps[e.op]; ok {
			g.emit("    %-4s r%d, r%d, r%d", mn, l, l, r)
		} else {
			g.errf(e.line, "internal: unhandled operator %q", e.op)
		}
	}
	g.release(r)
	return l, resT
}

// regOps maps each binary operator that is one register-register
// instruction to its mnemonic.
var regOps = map[string]string{
	"*": "mul", "/": "div", "%": "rem", "&": "and", "|": "or", "^": "xor", "<<": "shl", ">>": "shr",
}

func (g *codegen) genShortCircuit(e *expr) (int, Type) {
	// The result register is allocated FIRST so operand registers release
	// cleanly around it.
	res := g.alloc(e.line)
	end := g.label("sc")
	if e.op == "&&" {
		g.emit("    movi r%d, 0", res)
	} else {
		g.emit("    movi r%d, 1", res)
	}
	test := func(sub *expr) {
		v, _ := g.genExpr(sub)
		z := g.alloc(sub.line)
		g.emit("    movi r%d, 0", z)
		if e.op == "&&" {
			g.emit("    beq  r%d, r%d, %s", v, z, end)
		} else {
			g.emit("    bne  r%d, r%d, %s", v, z, end)
		}
		g.release(z)
		g.release(v)
	}
	test(e.lhs)
	test(e.rhs)
	if e.op == "&&" {
		g.emit("    movi r%d, 1", res)
	} else {
		g.emit("    movi r%d, 0", res)
	}
	g.emit("%s:", end)
	return res, TypeLong
}

func (g *codegen) genCall(e *expr) (int, Type) {
	sym, ok := g.u.syms[e.name]
	if !ok {
		g.errf(e.line, "call to undeclared function %q", e.name)
		return g.alloc(e.line), TypeLong
	}
	if !sym.isFunc {
		g.errf(e.line, "%q is not a function", e.name)
		return g.alloc(e.line), TypeLong
	}
	if len(e.args) != sym.numParam {
		g.errf(e.line, "%s expects %d arguments, got %d", e.name, sym.numParam, len(e.args))
	}

	// Save live scratch registers (caller-saved across calls).
	live := append([]int(nil), g.inUse...)
	for _, r := range live {
		g.push(r)
	}
	// Evaluate arguments left to right, parking each on the stack.
	for _, a := range e.args {
		r, _ := g.genExpr(a)
		g.push(r)
		g.release(r)
	}
	// Pop into the argument registers in reverse.
	for i := len(e.args) - 1; i >= 0; i-- {
		g.pop(i)
	}
	if sym.isExtern {
		g.externs[e.name] = true
		g.emit("    callg %s", e.name)
	} else {
		g.emit("    call %s", e.name)
	}
	// Restore live scratches.
	for i := len(live) - 1; i >= 0; i-- {
		g.pop(live[i])
	}
	res := g.alloc(e.line)
	g.emit("    mov  r%d, r0", res)
	return res, sym.retType
}
