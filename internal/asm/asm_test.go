package asm

import (
	"errors"
	"strings"
	"testing"

	"twochains/internal/elfobj"
	"twochains/internal/isa"
)

func mustAssemble(t *testing.T, src string) *elfobj.Object {
	t.Helper()
	o, err := Assemble("test.s", src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return o
}

func decode(t *testing.T, o *elfobj.Object) []isa.Instr {
	t.Helper()
	ins, err := isa.DecodeAll(o.Text)
	if err != nil {
		t.Fatal(err)
	}
	return ins
}

func TestBasicInstructions(t *testing.T) {
	o := mustAssemble(t, `
.text
.global f
f:
    movi r0, 42
    addi r1, r0, -1
    add  r2, r0, r1
    mov  r3, r2
    ld   r4, [sp+16]
    st   r4, [r3-8]
    ret
`)
	ins := decode(t, o)
	want := []isa.Instr{
		{Op: isa.MOVI, Rd: 0, Imm: 42},
		{Op: isa.ADDI, Rd: 1, Rs1: 0, Imm: -1},
		{Op: isa.ADD, Rd: 2, Rs1: 0, Rs2: 1},
		{Op: isa.MOV, Rd: 3, Rs1: 2},
		{Op: isa.LD, Rd: 4, Rs1: isa.RegSP, Imm: 16},
		{Op: isa.ST, Rd: 4, Rs1: 3, Imm: -8},
		{Op: isa.RET},
	}
	if len(ins) != len(want) {
		t.Fatalf("got %d instrs, want %d", len(ins), len(want))
	}
	for i := range want {
		if ins[i] != want[i] {
			t.Errorf("instr %d: %v, want %v", i, ins[i], want[i])
		}
	}
}

func TestBranchResolution(t *testing.T) {
	o := mustAssemble(t, `
.text
f:
loop:
    addi r0, r0, 1
    bne  r0, r1, loop
    jmp  done
    nop
done:
    ret
`)
	ins := decode(t, o)
	if ins[1].Op != isa.BNE || ins[1].Imm != -1 {
		t.Fatalf("bne imm = %d, want -1", ins[1].Imm)
	}
	if ins[2].Op != isa.JMP || ins[2].Imm != 2 {
		t.Fatalf("jmp imm = %d, want 2", ins[2].Imm)
	}
}

func TestCallLocalResolved(t *testing.T) {
	o := mustAssemble(t, `
.text
main:
    call helper
    ret
helper:
    ret
`)
	ins := decode(t, o)
	if ins[0].Op != isa.CALL || ins[0].Imm != 2 {
		t.Fatalf("call imm = %d, want 2", ins[0].Imm)
	}
	// Local calls produce no relocations.
	for _, r := range o.Relocs {
		if r.Type == elfobj.RelCall {
			t.Fatal("local call emitted a relocation")
		}
	}
}

func TestGotReferenceCreatesReloc(t *testing.T) {
	o := mustAssemble(t, `
.text
.extern memcpy
.extern table
f:
    callg memcpy
    ldg   r1, table
    ret
`)
	var gots []elfobj.Reloc
	for _, r := range o.Relocs {
		if r.Type == elfobj.RelGot {
			gots = append(gots, r)
		}
	}
	if len(gots) != 2 {
		t.Fatalf("GOT relocs = %d, want 2", len(gots))
	}
	if o.Symbols[gots[0].Sym].Name != "memcpy" || o.Symbols[gots[0].Sym].Defined() {
		t.Fatalf("first GOT sym: %+v", o.Symbols[gots[0].Sym])
	}
	if o.Symbols[gots[1].Sym].Name != "table" {
		t.Fatalf("second GOT sym: %+v", o.Symbols[gots[1].Sym])
	}
}

func TestGotOfLocalSymbolAllowed(t *testing.T) {
	// A GOT reference to a locally defined global is legal PIC (the loader
	// binds it to the local definition).
	o := mustAssemble(t, `
.text
.global f
f:
    callg g
    ret
.global g
g:
    ret
`)
	found := false
	for _, r := range o.Relocs {
		if r.Type == elfobj.RelGot && o.Symbols[r.Sym].Name == "g" && o.Symbols[r.Sym].Defined() {
			found = true
		}
	}
	if !found {
		t.Fatal("GOT reloc to defined symbol missing")
	}
}

func TestLeaRodata(t *testing.T) {
	o := mustAssemble(t, `
.text
f:
    lea r0, msg
    ret
.rodata
msg:
    .asciz "hi\n"
`)
	if string(o.Rodata) != "hi\n\x00" {
		t.Fatalf("rodata = %q", o.Rodata)
	}
	found := false
	for _, r := range o.Relocs {
		if r.Type == elfobj.RelLea && o.Symbols[r.Sym].Name == "msg" {
			found = true
			if r.Offset != 0 {
				t.Fatalf("lea reloc offset %d", r.Offset)
			}
		}
	}
	if !found {
		t.Fatal("no RelLea emitted")
	}
}

func TestDataDirectives(t *testing.T) {
	o := mustAssemble(t, `
.data
vals:
    .byte 1, 2, 0xFF
    .half 0x1234
    .word 0xDEADBEEF
    .quad -1
.bss
buf:
    .space 128
`)
	want := []byte{1, 2, 0xFF, 0x34, 0x12, 0xEF, 0xBE, 0xAD, 0xDE,
		0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
	if len(o.Data) != len(want) {
		t.Fatalf("data len %d, want %d: % x", len(o.Data), len(want), o.Data)
	}
	for i := range want {
		if o.Data[i] != want[i] {
			t.Fatalf("data[%d] = %#x, want %#x", i, o.Data[i], want[i])
		}
	}
	if o.BssSize != 128 {
		t.Fatalf("bss = %d", o.BssSize)
	}
}

func TestQuadSymbolReloc(t *testing.T) {
	o := mustAssemble(t, `
.text
.global f
f:
    ret
.data
fptr:
    .quad f
`)
	found := false
	for _, r := range o.Relocs {
		if r.Type == elfobj.RelAbs64 && r.Section == elfobj.SecData && o.Symbols[r.Sym].Name == "f" {
			found = true
		}
	}
	if !found {
		t.Fatal("no RelAbs64 for .quad f")
	}
}

func TestPadDirective(t *testing.T) {
	o := mustAssemble(t, `
.text
f:
    ret
.pad 1408
`)
	if len(o.Text) != 1408 {
		t.Fatalf("text = %d bytes, want 1408", len(o.Text))
	}
	ins := decode(t, o)
	if ins[1].Op != isa.NOP || ins[175].Op != isa.NOP {
		t.Fatal("padding is not NOPs")
	}
}

func TestPadErrors(t *testing.T) {
	if _, err := Assemble("t.s", ".text\nf:\nret\nret\n.pad 8\n"); err == nil {
		t.Fatal("shrinkage .pad accepted")
	}
	if _, err := Assemble("t.s", ".data\n.pad 64\n"); err == nil {
		t.Fatal(".pad outside .text accepted")
	}
	if _, err := Assemble("t.s", ".text\n.pad 12\n"); err == nil {
		t.Fatal("misaligned .pad accepted")
	}
}

func TestAlignDirective(t *testing.T) {
	o := mustAssemble(t, `
.rodata
a:
    .byte 1
.align 8
b:
    .quad 2
`)
	if len(o.Rodata) != 16 {
		t.Fatalf("rodata len = %d, want 16", len(o.Rodata))
	}
}

func TestErrorsCarryLineNumbers(t *testing.T) {
	_, err := Assemble("file.s", ".text\nf:\n    bogus r0\n")
	if err == nil {
		t.Fatal("bogus mnemonic accepted")
	}
	if !strings.Contains(err.Error(), "file.s:3") {
		t.Fatalf("error lacks position: %v", err)
	}
}

func TestUndefinedBranchTarget(t *testing.T) {
	_, err := Assemble("t.s", ".text\nf:\n    jmp nowhere\n")
	if err == nil || !strings.Contains(err.Error(), "nowhere") {
		t.Fatalf("undefined branch: %v", err)
	}
}

func TestCallExternRejected(t *testing.T) {
	_, err := Assemble("t.s", ".text\n.extern g\nf:\n    call g\n")
	if err == nil || !strings.Contains(err.Error(), "callg") {
		t.Fatalf("direct call to extern: %v", err)
	}
}

func TestGotUndeclaredRejected(t *testing.T) {
	_, err := Assemble("t.s", ".text\nf:\n    callg mystery\n")
	if err == nil {
		t.Fatal("callg of undeclared symbol accepted")
	}
}

func TestDuplicateLabelRejected(t *testing.T) {
	_, err := Assemble("t.s", ".text\nf:\nf:\n    ret\n")
	if err == nil {
		t.Fatal("duplicate label accepted")
	}
}

func TestGlobalNeverDefinedRejected(t *testing.T) {
	_, err := Assemble("t.s", ".text\n.global ghost\nf:\n    ret\n")
	if err == nil {
		t.Fatal(".global of undefined symbol accepted")
	}
}

func TestExternDefinedLocallyRejected(t *testing.T) {
	_, err := Assemble("t.s", ".text\n.extern f\nf:\n    ret\n")
	if err == nil {
		t.Fatal(".extern of defined symbol accepted")
	}
}

// TestLongSymbolNameRejected: a symbol name wire.Writer.Str cannot
// encode is refused on its line, as a label and as an .extern.
func TestLongSymbolNameRejected(t *testing.T) {
	long := strings.Repeat("x", 70000)
	for _, src := range []string{
		".text\n" + long + ":\n    ret\n",
		".text\n.extern " + long + "\nf:\n    callg " + long + "\n",
	} {
		_, err := Assemble("t.s", src)
		var ae *Error
		if !errors.As(err, &ae) || ae.Line != 2 || !strings.Contains(ae.Msg, "over the 65535") {
			t.Errorf("70,000-byte symbol name: err = %v, want an *asm.Error on line 2", err)
		}
	}
}

func TestInstructionOutsideTextRejected(t *testing.T) {
	_, err := Assemble("t.s", ".data\n    movi r0, 1\n")
	if err == nil {
		t.Fatal("instruction in .data accepted")
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	o := mustAssemble(t, `
; full line comment
# another
// a third
.text
f:  ; trailing comment
    movi r0, 1  # comment
    ret         // comment
.rodata
s:
    .asciz "semi;colon#inside//string"
`)
	if len(o.Text) != 16 {
		t.Fatalf("text = %d", len(o.Text))
	}
	if !strings.Contains(string(o.Rodata), "semi;colon#inside//string") {
		t.Fatalf("rodata = %q", o.Rodata)
	}
}

func TestCharLiteral(t *testing.T) {
	o := mustAssemble(t, ".text\nf:\n    movi r0, 'A'\n    ret\n")
	ins := decode(t, o)
	if ins[0].Imm != 65 {
		t.Fatalf("char literal = %d", ins[0].Imm)
	}
}

func TestLabelAndInstrSameLine(t *testing.T) {
	o := mustAssemble(t, ".text\nf: movi r0, 7\n   ret\n")
	ins := decode(t, o)
	if ins[0].Op != isa.MOVI || ins[0].Imm != 7 {
		t.Fatalf("same-line label+instr: %v", ins[0])
	}
	if o.FindSymbol("f") < 0 {
		t.Fatal("label f missing")
	}
}

func TestGlobalBindingRecorded(t *testing.T) {
	o := mustAssemble(t, ".text\n.global pub\npub:\n    ret\npriv:\n    ret\n")
	pi := o.FindSymbol("pub")
	if o.Symbols[pi].Binding != elfobj.BindGlobal {
		t.Fatal("pub not global")
	}
	vi := o.FindSymbol("priv")
	if o.Symbols[vi].Binding != elfobj.BindLocal {
		t.Fatal("priv not local")
	}
}
