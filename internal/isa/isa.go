// Package isa defines the JAM instruction set: the portable binary code
// format that Two-Chains ships inside active messages.
//
// The paper injects AArch64 machine code produced by GCC with -fPIC and
// -fno-plt, statically rewritten so that every Global Offset Table access
// indirects through a pointer stored just before the code in the message.
// A Go reproduction cannot execute foreign machine code in its own address
// space, so JAM plays that role: a fixed-width 64-bit register ISA whose
// instructions are position independent and whose external references go
// through a GOT, with both addressing forms the paper's toolchain uses:
//
//   - CALLG/LDG: GOT at a fixed module-relative location (normal
//     position-independent library code, resolved by the loader);
//   - CALLP/LDP: GOT reached through a pointer stored at codeBase-8
//     (the statically rewritten "jam" form that can execute at any
//     address on the receiver).
//
// Instructions are 8 bytes, little-endian:
//
//	byte 0    opcode
//	byte 1    rd   (destination register)
//	byte 2    rs1  (source register 1)
//	byte 3    rs2  (source register 2)
//	bytes 4-7 imm  (signed 32-bit immediate)
//
// Branch and call targets are PC-relative in units of instructions,
// measured from the branch instruction itself.
package isa

import "fmt"

// InstrSize is the fixed encoding size of one instruction in bytes.
const InstrSize = 8

// NumRegs is the number of architectural registers.
const NumRegs = 16

// Register conventions (enforced by the compiler and runtime, not the ISA):
// R0-R5 arguments and return value (R0), R6-R9 caller-saved temporaries,
// R10-R13 callee-saved, R14 link register, R15 stack pointer.
const (
	RegLR = 14
	RegSP = 15
)

// Op is an opcode.
type Op uint8

// Opcodes. The numeric values are part of the on-the-wire jam format.
const (
	NOP Op = iota
	HALT

	// Moves and address formation.
	MOVI  // rd = signext(imm)
	MOVIU // rd = (rd & 0xffffffff) | imm<<32
	MOV   // rd = rs1
	LEA   // rd = pc + imm*8 (PC-relative address: rodata, jump tables)

	// Register arithmetic and logic.
	ADD // rd = rs1 + rs2
	SUB
	MUL
	DIV // signed; divide by zero faults
	REM
	AND
	OR
	XOR
	SHL
	SHR // logical
	SAR // arithmetic

	// Immediate forms.
	ADDI
	MULI
	ANDI
	ORI
	XORI
	SHLI
	SHRI

	// Comparisons.
	SLT  // rd = rs1 < rs2 (signed)
	SLTU // rd = rs1 < rs2 (unsigned)
	SEQ  // rd = rs1 == rs2

	// Loads: rd = mem[rs1+imm], zero-extended.
	LDB
	LDH
	LDW
	LD

	// Stores: mem[rs1+imm] = rd (truncated).
	STB
	STH
	STW
	ST

	// Control flow.
	BEQ // if rs1 == rs2: pc += imm*8
	BNE
	BLT
	BGE
	BLTU
	BGEU
	JMP   // pc += imm*8
	CALL  // LR = pc+8; pc += imm*8
	CALLR // LR = pc+8; pc = rs1
	RET   // pc = LR

	// GOT-indirect external references (see package comment).
	CALLG // call *(moduleGOT + imm*8)
	LDG   // rd = *(moduleGOT + imm*8)
	CALLP // call *(*(codeBase-8) + imm*8)
	LDP   // rd = *(*(codeBase-8) + imm*8)

	opCount // sentinel
)

// OperandKind describes how an instruction uses its fields, driving the
// assembler, disassembler and validator from one table.
type OperandKind int

const (
	OperNone     OperandKind = iota // NOP, HALT, RET
	OperRdImm                       // MOVI, MOVIU, LEA
	OperRdRs1                       // MOV
	OperRdRs1Rs2                    // ADD ...
	OperRdRs1Imm                    // ADDI ..., loads
	OperRs1Imm                      // stores use rd as the value: see OperMem
	OperMemLoad                     // rd = [rs1+imm]
	OperMemStore                    // [rs1+imm] = rd
	OperBranch                      // rs1, rs2, imm target
	OperJump                        // imm target
	OperCallReg                     // rs1
	OperGotCall                     // imm slot
	OperGotLoad                     // rd, imm slot
)

// Info describes one opcode.
type Info struct {
	Name string
	Kind OperandKind
}

var infos = [opCount]Info{
	NOP:   {"nop", OperNone},
	HALT:  {"halt", OperNone},
	MOVI:  {"movi", OperRdImm},
	MOVIU: {"moviu", OperRdImm},
	MOV:   {"mov", OperRdRs1},
	LEA:   {"lea", OperRdImm},
	ADD:   {"add", OperRdRs1Rs2},
	SUB:   {"sub", OperRdRs1Rs2},
	MUL:   {"mul", OperRdRs1Rs2},
	DIV:   {"div", OperRdRs1Rs2},
	REM:   {"rem", OperRdRs1Rs2},
	AND:   {"and", OperRdRs1Rs2},
	OR:    {"or", OperRdRs1Rs2},
	XOR:   {"xor", OperRdRs1Rs2},
	SHL:   {"shl", OperRdRs1Rs2},
	SHR:   {"shr", OperRdRs1Rs2},
	SAR:   {"sar", OperRdRs1Rs2},
	ADDI:  {"addi", OperRdRs1Imm},
	MULI:  {"muli", OperRdRs1Imm},
	ANDI:  {"andi", OperRdRs1Imm},
	ORI:   {"ori", OperRdRs1Imm},
	XORI:  {"xori", OperRdRs1Imm},
	SHLI:  {"shli", OperRdRs1Imm},
	SHRI:  {"shri", OperRdRs1Imm},
	SLT:   {"slt", OperRdRs1Rs2},
	SLTU:  {"sltu", OperRdRs1Rs2},
	SEQ:   {"seq", OperRdRs1Rs2},
	LDB:   {"ldb", OperMemLoad},
	LDH:   {"ldh", OperMemLoad},
	LDW:   {"ldw", OperMemLoad},
	LD:    {"ld", OperMemLoad},
	STB:   {"stb", OperMemStore},
	STH:   {"sth", OperMemStore},
	STW:   {"stw", OperMemStore},
	ST:    {"st", OperMemStore},
	BEQ:   {"beq", OperBranch},
	BNE:   {"bne", OperBranch},
	BLT:   {"blt", OperBranch},
	BGE:   {"bge", OperBranch},
	BLTU:  {"bltu", OperBranch},
	BGEU:  {"bgeu", OperBranch},
	JMP:   {"jmp", OperJump},
	CALL:  {"call", OperJump},
	CALLR: {"callr", OperCallReg},
	RET:   {"ret", OperNone},
	CALLG: {"callg", OperGotCall},
	LDG:   {"ldg", OperGotLoad},
	CALLP: {"callp", OperGotCall},
	LDP:   {"ldp", OperGotLoad},
}

// Lookup returns the Info for op and whether op is a defined opcode.
func Lookup(op Op) (Info, bool) {
	if int(op) >= len(infos) || infos[op].Name == "" {
		return Info{}, false
	}
	return infos[op], true
}

// OpByName maps mnemonic to opcode; built once at init.
var opByName = func() map[string]Op {
	m := make(map[string]Op, opCount)
	for op := Op(0); op < opCount; op++ {
		if infos[op].Name != "" {
			m[infos[op].Name] = op
		}
	}
	return m
}()

// ByName returns the opcode for a mnemonic.
func ByName(name string) (Op, bool) {
	op, ok := opByName[name]
	return op, ok
}

// Instr is one decoded instruction.
type Instr struct {
	Op       Op
	Rd       uint8
	Rs1, Rs2 uint8
	Imm      int32
}

// Encode writes the instruction into dst, which must be at least InstrSize
// bytes long.
func (in Instr) Encode(dst []byte) {
	_ = dst[7]
	dst[0] = byte(in.Op)
	dst[1] = in.Rd
	dst[2] = in.Rs1
	dst[3] = in.Rs2
	u := uint32(in.Imm)
	dst[4] = byte(u)
	dst[5] = byte(u >> 8)
	dst[6] = byte(u >> 16)
	dst[7] = byte(u >> 24)
}

// Bytes returns the 8-byte encoding.
func (in Instr) Bytes() []byte {
	b := make([]byte, InstrSize)
	in.Encode(b)
	return b
}

// Decode reads one instruction from src (at least InstrSize bytes).
func Decode(src []byte) Instr {
	_ = src[7]
	return Instr{
		Op:  Op(src[0]),
		Rd:  src[1],
		Rs1: src[2],
		Rs2: src[3],
		Imm: int32(uint32(src[4]) | uint32(src[5])<<8 | uint32(src[6])<<16 | uint32(src[7])<<24),
	}
}

// Validate checks structural well-formedness (known opcode, register
// indices in range). Semantic faults (bad addresses, division by zero) are
// runtime matters for the VM.
func (in Instr) Validate() error {
	info, ok := Lookup(in.Op)
	if !ok {
		return fmt.Errorf("isa: unknown opcode %d", in.Op)
	}
	if in.Rd >= NumRegs || in.Rs1 >= NumRegs || in.Rs2 >= NumRegs {
		return fmt.Errorf("isa: %s: register out of range (rd=%d rs1=%d rs2=%d)",
			info.Name, in.Rd, in.Rs1, in.Rs2)
	}
	if (in.Kind() == OperGotCall || in.Kind() == OperGotLoad) && in.Imm < 0 {
		return fmt.Errorf("isa: %s: negative GOT slot %d", info.Name, in.Imm)
	}
	return nil
}

// Kind returns the operand kind of the instruction's opcode.
func (in Instr) Kind() OperandKind {
	info, ok := Lookup(in.Op)
	if !ok {
		return OperNone
	}
	return info.Kind
}

// String disassembles the instruction.
func (in Instr) String() string {
	info, ok := Lookup(in.Op)
	if !ok {
		return fmt.Sprintf(".word 0x%02x%02x%02x%02x_%08x", in.Op, in.Rd, in.Rs1, in.Rs2, uint32(in.Imm))
	}
	switch info.Kind {
	case OperNone:
		return info.Name
	case OperRdImm:
		return fmt.Sprintf("%s r%d, %d", info.Name, in.Rd, in.Imm)
	case OperRdRs1:
		return fmt.Sprintf("%s r%d, r%d", info.Name, in.Rd, in.Rs1)
	case OperRdRs1Rs2:
		return fmt.Sprintf("%s r%d, r%d, r%d", info.Name, in.Rd, in.Rs1, in.Rs2)
	case OperRdRs1Imm:
		return fmt.Sprintf("%s r%d, r%d, %d", info.Name, in.Rd, in.Rs1, in.Imm)
	case OperMemLoad:
		return fmt.Sprintf("%s r%d, [r%d%+d]", info.Name, in.Rd, in.Rs1, in.Imm)
	case OperMemStore:
		return fmt.Sprintf("%s r%d, [r%d%+d]", info.Name, in.Rd, in.Rs1, in.Imm)
	case OperBranch:
		return fmt.Sprintf("%s r%d, r%d, %d", info.Name, in.Rs1, in.Rs2, in.Imm)
	case OperJump:
		return fmt.Sprintf("%s %d", info.Name, in.Imm)
	case OperCallReg:
		return fmt.Sprintf("%s r%d", info.Name, in.Rs1)
	case OperGotCall:
		return fmt.Sprintf("%s @%d", info.Name, in.Imm)
	case OperGotLoad:
		return fmt.Sprintf("%s r%d, @%d", info.Name, in.Rd, in.Imm)
	}
	return info.Name
}

// DecodeAll decodes a whole code section. len(code) must be a multiple of
// InstrSize.
func DecodeAll(code []byte) ([]Instr, error) {
	if len(code)%InstrSize != 0 {
		return nil, fmt.Errorf("isa: code length %d not a multiple of %d", len(code), InstrSize)
	}
	out := make([]Instr, 0, len(code)/InstrSize)
	for off := 0; off < len(code); off += InstrSize {
		out = append(out, Decode(code[off:off+InstrSize]))
	}
	return out, nil
}

// EncodeAll encodes a sequence of instructions.
//
//tclint:allow deadexport the vm tests and the root benchmarks assemble their programs with it
func EncodeAll(ins []Instr) []byte {
	out := make([]byte, len(ins)*InstrSize)
	for i, in := range ins {
		in.Encode(out[i*InstrSize:])
	}
	return out
}

// Disassemble formats a code section with one instruction per line,
// prefixed with instruction indices.
func Disassemble(code []byte) (string, error) {
	ins, err := DecodeAll(code)
	if err != nil {
		return "", err
	}
	out := ""
	for i, in := range ins {
		out += fmt.Sprintf("%4d: %s\n", i, in)
	}
	return out, nil
}
