// Template JIT: a mapped code region is compiled into a table of native
// Go step closures specialized over the region's decoded instructions and
// its RIED namespace constants (GOT slot VAs, branch targets, register
// operands). Library text is compiled when AddRegion maps it — install
// time, once per node. Injected jams are not: EnsureJam maps them in
// tier 0, where the interpret loop in vm.go runs them, and compiles a
// slot's region only after the same bytes have hit that slot VA
// jamHotHits times. A cold translation costs about ten interpreted calls
// and a slot that keeps changing hands would never earn it back, which is
// the DBI-survey discipline: key the cache by what the code is (the body
// table shares decodes by content) and do not translate cold code.
// Programs stay bound to their region's VA.
//
// The interpreter remains the reference implementation and the oracle
// the compiled path must match bit-for-bit: results, Fault values,
// simulated costs, and instruction counts are all constructed by the same
// formulas in the same order. That contract is what makes the tier a
// region runs in unobservable to the simulation.
//
// Translation-cache discipline: the program rides the *Region of its jam
// slot, so it is invalidated exactly like the mapping — a RIED hot-swap
// or a different element landing in the slot fails EnsureJam's byte
// compare, the region is replaced by a fresh tier-0 one, and the stale
// translation goes with it. GOT-indirect call sites keep their loads (a
// hot-swap patches GOT slots in place, and the cost model charges those
// reads); only the slot addresses are pre-resolved.
//
// Equivalence edge cases deopt: a dynamic transfer to a misaligned
// in-region pc hands the whole machine state to the interpreter, whose
// floor-indexed fetch defines the contract there.
package vm

import (
	"encoding/binary"
	"fmt"

	"twochains/internal/isa"
	"twochains/internal/mem"
	"twochains/internal/memsim"
	"twochains/internal/model"
	"twochains/internal/sim"
)

// Step results: non-negative values are the next instruction index
// inside the same program.
const (
	jitEscape int32 = -1 // control left the region; m.pc holds the target VA
	jitFault  int32 = -2 // m.pc and m.err hold the fault
)

// stepFn executes one compiled unit and returns the next step index or a
// sentinel.
type stepFn func(m *jitMachine) int32

// jitMachine is the per-call mutable state shared by every compiled step.
// One lives in the VM (a VM runs one Call at a time), so the steady-state
// compiled path allocates nothing.
type jitMachine struct {
	vm     *VM
	cost   sim.Duration
	instrs uint64
	budget uint64
	pc     uint64 // meaningful after jitEscape/jitFault
	err    error  // meaningful after jitFault

	// Fetch-line model state, mirrored from the interpreter.
	lastFetchLine uint64
	hotLines      [8]uint64
	hotIdx        int
}

func (m *jitMachine) fail(pc uint64, err error) int32 {
	m.pc = pc
	m.err = err
	return jitFault
}

func (m *jitMachine) failBudget(pc uint64) int32 {
	return m.fail(pc, fmt.Errorf("instruction budget exceeded (%d)", m.budget))
}

// fetchLine replays the interpreter's per-line fetch modelling: exec
// permission check, sequential-fetch detection, and the hot-line ring
// that lets loop bodies re-enter recently fetched lines for free. It is
// only reached from line-aware programs. Reports true on a fetch fault.
func (m *jitMachine) fetchLine(pc, line uint64) bool {
	vm := m.vm
	seqFetch := line == m.lastFetchLine+64
	m.lastFetchLine = line
	if vm.CheckExec {
		if err := vm.AS.FetchCheck(pc, isa.InstrSize); err != nil {
			m.pc = pc
			m.err = err
			return true
		}
	}
	hot := false
	for _, h := range m.hotLines {
		if h == line+1 {
			hot = true
			break
		}
	}
	if !hot {
		if vm.Hier != nil {
			m.cost += vm.Hier.AccessSeq(line, 64, memsim.Fetch, seqFetch)
		}
		m.hotLines[m.hotIdx] = line + 1
		m.hotIdx = (m.hotIdx + 1) & 7
	}
	return false
}

// program is one region's compiled translation.
type program struct {
	start, end uint64
	// lineAware programs carry the per-line fetch/exec modelling and
	// restrict fused runs to a single fetch line; a program compiled
	// without it is only valid while the VM has no hierarchy and no
	// exec checking (the dispatcher recompiles on mismatch).
	lineAware bool
	steps     []stepFn // one per instruction slot, individual semantics
	disp      []stepFn // dispatch table: fused-run heads override steps
	blocks    int
	fusedRuns int
	fusedOps  int
}

// run threads the dispatch table from idx until control leaves the
// region or faults.
func (p *program) run(m *jitMachine, idx int32) int32 {
	disp := p.disp
	n := int32(len(disp))
	for idx >= 0 {
		if idx >= n {
			// Fell past the end: same as the interpreter's pc reaching
			// region.End — resolve the next region (or fault) outside.
			m.pc = p.start + uint64(idx)*isa.InstrSize
			return jitEscape
		}
		idx = disp[idx](m)
	}
	return idx
}

// enter resolves a dynamic control transfer (CALLR/RET/CALLG/CALLP
// targets). In-region aligned targets continue inside the program;
// everything else — other regions, natives, retMagic, misaligned pcs —
// escapes to the dispatcher.
func (p *program) enter(m *jitMachine, va uint64) int32 {
	if va >= p.start && va < p.end {
		if d := va - p.start; d&7 == 0 {
			return int32(d >> 3)
		}
	}
	m.pc = va
	return jitEscape
}

// slowRun executes a fused run's instructions individually — the bail
// path when the instruction budget could expire mid-run, so the fault
// lands on exactly the instruction the interpreter would charge.
func (p *program) slowRun(m *jitMachine, idx, end int32) int32 {
	for idx >= 0 && idx < end {
		idx = p.steps[idx](m)
	}
	return idx
}

// ---------------------------------------------------------------------
// Static analysis: basic blocks and fusable ALU runs.

// PlanRun is one fusable straight-line ALU span.
type PlanRun struct {
	Start, Len int
}

// Plan is the static compile plan for a code region — what tcdisasm
// prints and what the emitter consumes.
type Plan struct {
	Instrs    int
	Blocks    int
	Runs      []PlanRun
	FusedOps  int
	LineAware bool
}

// fusable reports whether op can join a fused ALU run: register-only
// effects, cannot fault, cannot branch. DIV/REM fault on zero divisors
// and stay out.
func fusable(op isa.Op) bool {
	switch op {
	case isa.NOP, isa.MOVI, isa.MOVIU, isa.MOV, isa.LEA,
		isa.ADD, isa.SUB, isa.MUL, isa.AND, isa.OR, isa.XOR,
		isa.SHL, isa.SHR, isa.SAR,
		isa.ADDI, isa.MULI, isa.ANDI, isa.ORI, isa.XORI, isa.SHLI, isa.SHRI,
		isa.SLT, isa.SLTU, isa.SEQ:
		return true
	}
	return false
}

// memOp reports whether op is a plain load or store — fusable into runs
// of non-line-aware programs, where a memory access carries no hierarchy
// charge and the only observable mid-run effect is its fault.
func memOp(op isa.Op) bool {
	switch op {
	case isa.LDB, isa.LDH, isa.LDW, isa.LD,
		isa.STB, isa.STH, isa.STW, isa.ST:
		return true
	}
	return false
}

func isControl(op isa.Op) bool {
	switch op {
	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU,
		isa.JMP, isa.CALL, isa.CALLR, isa.RET, isa.CALLG, isa.CALLP, isa.HALT:
		return true
	}
	return false
}

// AnalyzeRegion computes the compile plan for decoded code at startVA:
// leaders (block heads), and maximal fusable runs that never cross a
// leader — a static branch target must land on a dispatchable step — and,
// when lineAware, never cross a 64-byte fetch line, so the per-line
// model keeps firing at the same pcs as the interpreter.
func AnalyzeRegion(instrs []isa.Instr, startVA uint64, lineAware bool) Plan {
	n := len(instrs)
	leader := make([]bool, n+1)
	if n > 0 {
		leader[0] = true
	}
	for i, in := range instrs {
		switch in.Op {
		case isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU, isa.JMP, isa.CALL:
			pc := startVA + uint64(i)*isa.InstrSize
			tva := branchTarget(pc, in.Imm)
			if tva >= startVA {
				if t := (tva - startVA) / isa.InstrSize; t < uint64(n) {
					leader[t] = true
				}
			}
		}
		if isControl(in.Op) && i+1 <= n {
			leader[i+1] = true
		}
	}
	p := Plan{Instrs: n, LineAware: lineAware}
	for i := 0; i < n; i++ {
		if leader[i] {
			p.Blocks++
		}
	}
	// Maximal runs: start anywhere, extend while the next instruction is
	// fusable, not a leader, and (line-aware) on the same fetch line.
	// Loads and stores join runs only in non-line-aware programs (no
	// per-access hierarchy charge to order); their faults roll the run's
	// pre-charged instruction count back to the exact faulting slot.
	joins := func(op isa.Op) bool {
		return fusable(op) || (!lineAware && memOp(op))
	}
	for i := 0; i < n; {
		if !joins(instrs[i].Op) {
			i++
			continue
		}
		j := i + 1
		line := (startVA + uint64(i)*isa.InstrSize) &^ 63
		for j < n && j-i < 255 && joins(instrs[j].Op) && !leader[j] {
			if lineAware && (startVA+uint64(j)*isa.InstrSize)&^63 != line {
				break
			}
			j++
		}
		if j-i >= 2 {
			p.Runs = append(p.Runs, PlanRun{Start: i, Len: j - i})
			p.FusedOps += j - i
		}
		i = j
	}
	return p
}

// ---------------------------------------------------------------------
// Micro-ops: the data form fused ALU runs execute from.

type uopKind uint8

const (
	uNop uopKind = iota
	uSet         // rd = imm (MOVI, LEA with the pc folded in)
	uMoviu
	uMov
	uAdd
	uSub
	uMul
	uAnd
	uOr
	uXor
	uShl
	uShr
	uSar
	uAddi
	uMuli
	uAndi
	uOri
	uXori
	uShli
	uShri
	uSlt
	uSltu
	uSeq

	// Superinstructions: adjacent pairs fused by peepholeUops. Legal
	// because a fused ALU span has no observable intermediate states —
	// it cannot fault, and control cannot enter or leave mid-run — so
	// only the register file at run exit matters. (Memory uops can
	// fault, but they never fuse with neighbours, so every register
	// value a fault exposes is exactly the interpreter's.)
	uMulXori  // rd = (rs1 * rs2) ^ imm
	uAddiMul  // rd = (rs1 + imm) * rs2
	uXorAddi  // rd = (rs1 ^ rs2) + imm
	uShriXor  // rs2 = rs1 >> imm; rd = rd0 ^ rs2  (hash-mix staple)
	uXoriShri // rd = rs1 ^ imm; rs2 = rd >> imm2

	// Second-level fusion: a whole xorshift mix round
	// (mul; xori; shri; xor; addi) in one dispatch. The pattern is the
	// splitmix/murmur finalizer staple, so generated hash kernels spend
	// nearly all their ALU time here.
	uMix // v=(rs1*rs2)^imm; t=v>>sh; rs3=t; rd=(v^t)+imm2

	// Memory micro-ops (non-line-aware runs only): rd ↔ [rs1+imm]. The
	// only uop kinds that can fault; oi locates the faulting slot for the
	// instruction-count rollback.
	uLd8
	uLd16
	uLd32
	uLd64
	uSt8
	uSt16
	uSt32
	uSt64

	// Table-driven pooled forms (third fusion level). Both read the
	// run's aux table so one dispatch covers a whole idiom:
	//   uMixN:  imm=aux start, imm2=round count; aux holds (xor, add)
	//           immediate pairs; rd=rs1 accumulator, rs2 multiplier,
	//           rs3 temp, sh shift — the registers every round shares.
	//   uLdSeq/uStSeq: imm=base offset, imm2=(aux start)<<32 | count;
	//           aux holds the register numbers transferred to/from
	//           [rs1+imm+8k], in program order.
	uMixN
	uLdSeq
	uStSeq
)

type uop struct {
	kind         uopKind
	rd, rs1, rs2 uint8
	rs3, sh      uint8  // uMix only: temp destination and shift count
	oi           uint8  // memory uops only: original index within the run
	imm          uint64 // pre-lowered: sign-extended, pre-shifted, or absolute
	imm2         uint64 // second immediate of fused pairs
}

// lowerMem translates one load/store into its micro-op; oi is the
// instruction's index within its run, kept for the fault rollback.
func lowerMem(in isa.Instr, oi int) uop {
	o := uop{rd: in.Rd, rs1: in.Rs1, imm: uint64(int64(in.Imm)), oi: uint8(oi)}
	switch in.Op {
	case isa.LDB:
		o.kind = uLd8
	case isa.LDH:
		o.kind = uLd16
	case isa.LDW:
		o.kind = uLd32
	case isa.LD:
		o.kind = uLd64
	case isa.STB:
		o.kind = uSt8
	case isa.STH:
		o.kind = uSt16
	case isa.STW:
		o.kind = uSt32
	case isa.ST:
		o.kind = uSt64
	}
	return o
}

// lowerALU translates one fusable instruction into a micro-op,
// pre-folding everything the interpreter computes per execution.
func lowerALU(in isa.Instr, pc uint64) uop {
	o := uop{rd: in.Rd, rs1: in.Rs1, rs2: in.Rs2}
	switch in.Op {
	case isa.NOP:
		o.kind = uNop
	case isa.MOVI:
		o.kind, o.imm = uSet, uint64(int64(in.Imm))
	case isa.MOVIU:
		o.kind, o.imm = uMoviu, uint64(uint32(in.Imm))<<32
	case isa.MOV:
		o.kind = uMov
	case isa.LEA:
		o.kind, o.imm = uSet, pc+uint64(int64(in.Imm))
	case isa.ADD:
		o.kind = uAdd
	case isa.SUB:
		o.kind = uSub
	case isa.MUL:
		o.kind = uMul
	case isa.AND:
		o.kind = uAnd
	case isa.OR:
		o.kind = uOr
	case isa.XOR:
		o.kind = uXor
	case isa.SHL:
		o.kind = uShl
	case isa.SHR:
		o.kind = uShr
	case isa.SAR:
		o.kind = uSar
	case isa.ADDI:
		o.kind, o.imm = uAddi, uint64(int64(in.Imm))
	case isa.MULI:
		o.kind, o.imm = uMuli, uint64(int64(in.Imm))
	case isa.ANDI:
		o.kind, o.imm = uAndi, uint64(int64(in.Imm))
	case isa.ORI:
		o.kind, o.imm = uOri, uint64(int64(in.Imm))
	case isa.XORI:
		o.kind, o.imm = uXori, uint64(int64(in.Imm))
	case isa.SHLI:
		o.kind, o.imm = uShli, uint64(in.Imm)&63
	case isa.SHRI:
		o.kind, o.imm = uShri, uint64(in.Imm)&63
	case isa.SLT:
		o.kind = uSlt
	case isa.SLTU:
		o.kind = uSltu
	case isa.SEQ:
		o.kind = uSeq
	}
	return o
}

// execUops runs a fused span over the register file. Semantics per kind
// are copied from the interpreter's switch arms. Returns -1 on normal
// completion, or — with m.err set — the original in-run instruction
// index of a faulting memory access (the caller rolls back the
// pre-charged instruction count and builds the fault pc from it). aux
// is the run's side table for the pooled uMixN/uLdSeq/uStSeq forms.
func execUops(m *jitMachine, as *mem.AddressSpace, r *[16]uint64, ops []uop, aux []uint64) int32 {
	for i := range ops {
		o := &ops[i]
		switch o.kind {
		case uSet:
			r[o.rd] = o.imm
		case uMoviu:
			r[o.rd] = (r[o.rd] & 0xFFFFFFFF) | o.imm
		case uMov:
			r[o.rd] = r[o.rs1]
		case uAdd:
			r[o.rd] = r[o.rs1] + r[o.rs2]
		case uSub:
			r[o.rd] = r[o.rs1] - r[o.rs2]
		case uMul:
			r[o.rd] = r[o.rs1] * r[o.rs2]
		case uAnd:
			r[o.rd] = r[o.rs1] & r[o.rs2]
		case uOr:
			r[o.rd] = r[o.rs1] | r[o.rs2]
		case uXor:
			r[o.rd] = r[o.rs1] ^ r[o.rs2]
		case uShl:
			r[o.rd] = r[o.rs1] << (r[o.rs2] & 63)
		case uShr:
			r[o.rd] = r[o.rs1] >> (r[o.rs2] & 63)
		case uSar:
			r[o.rd] = uint64(int64(r[o.rs1]) >> (r[o.rs2] & 63))
		case uAddi:
			r[o.rd] = r[o.rs1] + o.imm
		case uMuli:
			r[o.rd] = r[o.rs1] * o.imm
		case uAndi:
			r[o.rd] = r[o.rs1] & o.imm
		case uOri:
			r[o.rd] = r[o.rs1] | o.imm
		case uXori:
			r[o.rd] = r[o.rs1] ^ o.imm
		case uShli:
			r[o.rd] = r[o.rs1] << o.imm
		case uShri:
			r[o.rd] = r[o.rs1] >> o.imm
		case uSlt:
			r[o.rd] = b2u(int64(r[o.rs1]) < int64(r[o.rs2]))
		case uSltu:
			r[o.rd] = b2u(r[o.rs1] < r[o.rs2])
		case uSeq:
			r[o.rd] = b2u(r[o.rs1] == r[o.rs2])

		case uMulXori:
			r[o.rd] = (r[o.rs1] * r[o.rs2]) ^ o.imm
		case uAddiMul:
			r[o.rd] = (r[o.rs1] + o.imm) * r[o.rs2]
		case uXorAddi:
			r[o.rd] = (r[o.rs1] ^ r[o.rs2]) + o.imm
		case uShriXor:
			// Stores before the xor read, so register aliasing (rs2 ==
			// rs1) resolves exactly as the two-instruction original.
			t := r[o.rs1] >> o.imm
			r[o.rs2] = t
			r[o.rd] = r[o.rs1] ^ t
		case uXoriShri:
			v := r[o.rs1] ^ o.imm
			r[o.rd] = v
			r[o.rs2] = v >> o.imm2
		case uMix:
			// Aliasing contract: rs3 is written before rd exactly as the
			// unfused uShriXor stored its temp before the xor result, and
			// fusion requires rs3 to differ from rd (and the mix sources),
			// so no read below observes a fused-away intermediate.
			v := (r[o.rs1] * r[o.rs2]) ^ o.imm
			t := v >> o.sh
			r[o.rs3] = t
			r[o.rd] = (v ^ t) + o.imm2

		case uLd64:
			addr := r[o.rs1] + o.imm
			if v, ok := as.FastRead64(addr); ok {
				r[o.rd] = v
				break
			}
			v, err := as.ReadU64(addr)
			if err != nil {
				m.err = err
				return int32(o.oi)
			}
			r[o.rd] = v
		case uSt64:
			addr := r[o.rs1] + o.imm
			if as.FastWrite64(addr, r[o.rd]) {
				break
			}
			if err := as.WriteU64(addr, r[o.rd]); err != nil {
				m.err = err
				return int32(o.oi)
			}
		case uLd8:
			v, err := as.ReadU8(r[o.rs1] + o.imm)
			if err != nil {
				m.err = err
				return int32(o.oi)
			}
			r[o.rd] = v
		case uLd16:
			v, err := as.ReadU16(r[o.rs1] + o.imm)
			if err != nil {
				m.err = err
				return int32(o.oi)
			}
			r[o.rd] = v
		case uLd32:
			v, err := as.ReadU32(r[o.rs1] + o.imm)
			if err != nil {
				m.err = err
				return int32(o.oi)
			}
			r[o.rd] = v
		case uSt8:
			if err := as.WriteU8(r[o.rs1]+o.imm, r[o.rd]); err != nil {
				m.err = err
				return int32(o.oi)
			}
		case uSt16:
			if err := as.WriteU16(r[o.rs1]+o.imm, r[o.rd]); err != nil {
				m.err = err
				return int32(o.oi)
			}
		case uSt32:
			if err := as.WriteU32(r[o.rs1]+o.imm, r[o.rd]); err != nil {
				m.err = err
				return int32(o.oi)
			}

		case uMixN:
			// Whole mix chain in one dispatch: the accumulator and the
			// multiplier live in locals across rounds (fusion guarantees
			// no round writes the multiplier register), and only the
			// final accumulator/temp pair is architecturally visible.
			v, c := r[o.rd], r[o.rs2]
			var t uint64
			pairs := aux[o.imm : o.imm+2*o.imm2]
			for k := 0; k < len(pairs); k += 2 {
				v = (v * c) ^ pairs[k]
				t = v >> o.sh
				v = (v ^ t) + pairs[k+1]
			}
			r[o.rs3] = t
			r[o.rd] = v
		case uLdSeq:
			base := r[o.rs1] + o.imm
			regs := aux[o.imm2>>32 : o.imm2>>32+o.imm2&0xFFFFFFFF]
			if span := as.FastSpan(base, 8*len(regs), mem.PermR); span != nil {
				for k, reg := range regs {
					r[reg] = binary.LittleEndian.Uint64(span[8*k:])
				}
				continue
			}
			for k, reg := range regs {
				addr := base + uint64(k)*8
				if v, ok := as.FastRead64(addr); ok {
					r[reg] = v
					continue
				}
				v, err := as.ReadU64(addr)
				if err != nil {
					m.err = err
					return int32(o.oi) + int32(k)
				}
				r[reg] = v
			}
		case uStSeq:
			base := r[o.rs1] + o.imm
			regs := aux[o.imm2>>32 : o.imm2>>32+o.imm2&0xFFFFFFFF]
			if span := as.FastSpan(base, 8*len(regs), mem.PermW); span != nil {
				for k, reg := range regs {
					binary.LittleEndian.PutUint64(span[8*k:], r[reg])
				}
				continue
			}
			for k, reg := range regs {
				addr := base + uint64(k)*8
				if as.FastWrite64(addr, r[reg]) {
					continue
				}
				if err := as.WriteU64(addr, r[reg]); err != nil {
					m.err = err
					return int32(o.oi) + int32(k)
				}
			}
		}
	}
	return -1
}

// peepholeUops greedily fuses adjacent micro-op pairs into
// superinstructions — the classic interpreter-superinstruction trick,
// halving dispatch for the generated-code staples (64-bit constant
// loads, multiply-xor hash mixing, shift-xor folding). Each fusion is
// checked to leave the full register file identical to executing the
// pair, including aliasing between destinations and sources.
func peepholeUops(ops []uop) []uop {
	ops = fuseMixRounds(ops)
	out := make([]uop, 0, len(ops))
	for i := 0; i < len(ops); i++ {
		if i+1 < len(ops) {
			if f, ok := fuseUopPair(ops[i], ops[i+1]); ok {
				out = append(out, f)
				i++
				continue
			}
		}
		out = append(out, ops[i])
	}
	return out
}

// fuseMixRounds is the second fusion level, run on the raw lowered
// stream BEFORE pair fusion: a xorshift mix round is the five-uop span
// (uMul; uXori; uShri; uXor; uAddi) threaded through one accumulator.
// It must run first because greedy pairing would split consecutive
// rounds out of phase (each round's trailing addi fuses forward into
// the next round's mul), leaving a five-superop two-round cycle that no
// fixed-width matcher can pool. On the raw stream every round is
// uniform, so each collapses to a uMix and chains pool into uMixN.
func fuseMixRounds(ops []uop) []uop {
	out := ops[:0]
	for i := 0; i < len(ops); i++ {
		if i+4 < len(ops) {
			a, b, c, d, e := ops[i], ops[i+1], ops[i+2], ops[i+3], ops[i+4]
			if a.kind == uMul && a.rs1 == a.rd && a.rs2 != a.rd &&
				b.kind == uXori && b.rd == a.rd && b.rs1 == a.rd &&
				c.kind == uShri && c.rd != a.rd && c.rd != a.rs2 && c.rs1 == a.rd &&
				d.kind == uXor && d.rd == a.rd && d.rs1 == a.rd && d.rs2 == c.rd &&
				e.kind == uAddi && e.rd == a.rd && e.rs1 == a.rd {
				out = append(out, uop{
					kind: uMix, rd: a.rd, rs1: a.rs1, rs2: a.rs2,
					rs3: c.rd, sh: uint8(c.imm),
					imm: b.imm, imm2: e.imm,
				})
				i += 4
				continue
			}
		}
		out = append(out, ops[i])
	}
	return out
}

// poolUops is the third fusion level: chains of identically-shaped uops
// collapse into one table-driven dispatch, with the variable parts (mix
// immediates, transferred registers) moved into the run's aux table.
func poolUops(ops []uop) ([]uop, []uint64) {
	var aux []uint64
	out := ops[:0]
	for i := 0; i < len(ops); i++ {
		o := ops[i]
		switch o.kind {
		case uMix:
			// A chain continues while every round keeps the same
			// accumulator (rd==rs1), multiplier, temp, and shift, and no
			// round writes the multiplier register (rd and rs3 are the
			// only writes; rs3==rd is fine — the chain preserves the
			// store-temp-then-result order on exit).
			if o.rs1 != o.rd || o.rs2 == o.rd || o.rs2 == o.rs3 {
				break
			}
			j := i + 1
			for j < len(ops) {
				n := ops[j]
				if n.kind != uMix || n.rd != o.rd || n.rs1 != o.rd ||
					n.rs2 != o.rs2 || n.rs3 != o.rs3 || n.sh != o.sh {
					break
				}
				j++
			}
			if j-i >= 2 {
				start := uint64(len(aux))
				for _, m := range ops[i:j] {
					aux = append(aux, m.imm, m.imm2)
				}
				out = append(out, uop{
					kind: uMixN, rd: o.rd, rs1: o.rs1, rs2: o.rs2,
					rs3: o.rs3, sh: o.sh,
					imm: start, imm2: uint64(j - i),
				})
				i = j - 1
				continue
			}
		case uLd64, uSt64:
			// Contiguous same-base 8-byte transfers at ascending +8
			// offsets (push/pop idiom). Loads must not overwrite the
			// base register mid-sequence — the pooled form computes the
			// base once.
			j := i + 1
			off := o.imm
			okBase := o.kind != uLd64 || o.rd != o.rs1
			for okBase && j < len(ops) {
				n := ops[j]
				if n.kind != o.kind || n.rs1 != o.rs1 ||
					n.imm != off+uint64(j-i)*8 ||
					int(n.oi) != int(o.oi)+(j-i) ||
					(o.kind == uLd64 && n.rd == n.rs1) {
					break
				}
				j++
			}
			if j-i >= 2 {
				start := uint64(len(aux))
				for _, m := range ops[i:j] {
					aux = append(aux, uint64(m.rd))
				}
				kind := uLdSeq
				if o.kind == uSt64 {
					kind = uStSeq
				}
				out = append(out, uop{
					kind: kind, rs1: o.rs1, oi: o.oi,
					imm: off, imm2: start<<32 | uint64(j-i),
				})
				i = j - 1
				continue
			}
		}
		out = append(out, o)
	}
	return out, aux
}

func fuseUopPair(a, b uop) (uop, bool) {
	switch {
	case a.kind == uSet && b.kind == uMoviu && b.rd == a.rd:
		// movi + moviu: a full 64-bit constant load.
		return uop{kind: uSet, rd: a.rd, imm: a.imm&0xFFFFFFFF | b.imm}, true
	case a.kind == uMul && b.kind == uXori && b.rd == a.rd && b.rs1 == a.rd:
		return uop{kind: uMulXori, rd: a.rd, rs1: a.rs1, rs2: a.rs2, imm: b.imm}, true
	case a.kind == uAddi && b.kind == uMul && b.rd == a.rd && b.rs1 == a.rd && b.rs2 != a.rd:
		// b.rs2 == a.rd would read the addi result; keep that pair apart.
		return uop{kind: uAddiMul, rd: a.rd, rs1: a.rs1, rs2: b.rs2, imm: a.imm}, true
	case a.kind == uXor && b.kind == uAddi && b.rd == a.rd && b.rs1 == a.rd:
		return uop{kind: uXorAddi, rd: a.rd, rs1: a.rs1, rs2: a.rs2, imm: b.imm}, true
	case a.kind == uShri && b.kind == uXor &&
		((b.rs1 == a.rs1 && b.rs2 == a.rd) || (b.rs1 == a.rd && b.rs2 == a.rs1)):
		return uop{kind: uShriXor, rd: b.rd, rs1: a.rs1, rs2: a.rd, imm: a.imm}, true
	case a.kind == uXori && b.kind == uShri && b.rs1 == a.rd:
		return uop{kind: uXoriShri, rd: a.rd, rs1: a.rs1, rs2: b.rd, imm: a.imm, imm2: b.imm}, true
	}
	return uop{}, false
}

// ---------------------------------------------------------------------
// Emission.

// compileRegion builds the translation for r against the VM's current
// flags. Compilation is total — every validated instruction lowers — so
// there is no per-region fallback; only dynamic misaligned entries deopt.
func (vm *VM) compileRegion(r *Region) *program {
	lineAware := vm.Hier != nil || vm.CheckExec
	plan := AnalyzeRegion(r.instrs, r.Start, lineAware)
	p := &program{
		start:     r.Start,
		end:       r.End,
		lineAware: lineAware,
		blocks:    plan.Blocks,
		fusedRuns: len(plan.Runs),
		fusedOps:  plan.FusedOps,
	}
	n := len(r.instrs)
	p.steps = make([]stepFn, n)
	for i := 0; i < n; i++ {
		p.steps[i] = vm.compileStep(r, p, i, lineAware)
	}
	p.disp = make([]stepFn, n)
	copy(p.disp, p.steps)
	for _, run := range plan.Runs {
		p.disp[run.Start] = vm.compileRun(r, p, run, lineAware)
	}
	vm.JITCompiles++
	return p
}

// compileRun emits the superstep for one fused ALU span. The head does
// the (single) line check and one budget pre-check for the whole span;
// if the budget could expire inside it, the span re-executes through the
// individual steps so the fault lands exactly where the interpreter puts
// it.
func (vm *VM) compileRun(r *Region, p *program, run PlanRun, lineAware bool) stepFn {
	ops := make([]uop, run.Len)
	for k := 0; k < run.Len; k++ {
		i := run.Start + k
		if memOp(r.instrs[i].Op) {
			ops[k] = lowerMem(r.instrs[i], k)
		} else {
			ops[k] = lowerALU(r.instrs[i], r.Start+uint64(i)*isa.InstrSize)
		}
	}
	ops = peepholeUops(ops)
	ops, aux := poolUops(ops)
	head := int32(run.Start)
	end := int32(run.Start + run.Len)
	n := uint64(run.Len)
	pc := r.Start + uint64(run.Start)*isa.InstrSize
	line := pc &^ 63
	regs := &vm.regs
	as := vm.AS
	if lineAware {
		// Line-aware runs hold ALU uops only (AnalyzeRegion keeps memory
		// ops out), so execUops cannot report a fault here.
		return func(m *jitMachine) int32 {
			if line != m.lastFetchLine {
				if m.fetchLine(pc, line) {
					return jitFault
				}
			}
			if m.instrs+n > m.budget {
				return p.slowRun(m, head, end)
			}
			m.instrs += n
			execUops(m, as, regs, ops, aux)
			return end
		}
	}
	return func(m *jitMachine) int32 {
		if m.instrs+n > m.budget {
			return p.slowRun(m, head, end)
		}
		m.instrs += n
		if k := execUops(m, as, regs, ops, aux); k >= 0 {
			// A memory access faulted: k is its original index within
			// the run. Roll the pre-charged count back to that
			// instruction (the interpreter charges it before executing)
			// and report its exact pc.
			oi := uint64(k)
			m.instrs -= n - oi - 1
			m.pc = pc + oi*isa.InstrSize
			return jitFault
		}
		return end
	}
}

// wrapStep prefixes a step body with the per-instruction prologue the
// interpreter runs before its switch: the line fetch model (line-aware
// programs only) and the budget charge.
func wrapStep(pc, line uint64, lineAware bool, body stepFn) stepFn {
	if !lineAware {
		return func(m *jitMachine) int32 {
			m.instrs++
			if m.instrs > m.budget {
				return m.failBudget(pc)
			}
			return body(m)
		}
	}
	return func(m *jitMachine) int32 {
		if line != m.lastFetchLine {
			if m.fetchLine(pc, line) {
				return jitFault
			}
		}
		m.instrs++
		if m.instrs > m.budget {
			return m.failBudget(pc)
		}
		return body(m)
	}
}

// compileStep emits the individual step for instruction i of r. Each arm
// mirrors the corresponding interpreter case, with operands pre-resolved
// to register-file pointers and immediates pre-lowered.
func (vm *VM) compileStep(r *Region, p *program, i int, lineAware bool) stepFn {
	in := r.instrs[i]
	pc := r.Start + uint64(i)*isa.InstrSize
	line := pc &^ 63
	next := int32(i + 1)
	nextVA := pc + isa.InstrSize
	regs := &vm.regs
	as := vm.AS
	lr := &vm.regs[isa.RegLR]

	var body stepFn
	switch in.Op {
	case isa.HALT:
		body = func(m *jitMachine) int32 {
			m.pc = retMagic
			return jitEscape
		}

	case isa.NOP, isa.MOVI, isa.MOVIU, isa.MOV, isa.LEA,
		isa.ADD, isa.SUB, isa.MUL, isa.AND, isa.OR, isa.XOR,
		isa.SHL, isa.SHR, isa.SAR,
		isa.ADDI, isa.MULI, isa.ANDI, isa.ORI, isa.XORI, isa.SHLI, isa.SHRI,
		isa.SLT, isa.SLTU, isa.SEQ:
		ops := [1]uop{lowerALU(in, pc)}
		body = func(m *jitMachine) int32 {
			execUops(m, as, regs, ops[:], nil)
			return next
		}

	case isa.DIV:
		d, a, b := &regs[in.Rd], &regs[in.Rs1], &regs[in.Rs2]
		body = func(m *jitMachine) int32 {
			if *b == 0 {
				return m.fail(pc, fmt.Errorf("division by zero"))
			}
			*d = uint64(int64(*a) / int64(*b))
			return next
		}
	case isa.REM:
		d, a, b := &regs[in.Rd], &regs[in.Rs1], &regs[in.Rs2]
		body = func(m *jitMachine) int32 {
			if *b == 0 {
				return m.fail(pc, fmt.Errorf("division by zero"))
			}
			*d = uint64(int64(*a) % int64(*b))
			return next
		}

	case isa.LDB, isa.LDH, isa.LDW, isa.LD:
		d, base := &regs[in.Rd], &regs[in.Rs1]
		off := uint64(int64(in.Imm))
		size := loadSize(in.Op)
		var read func(uint64) (uint64, error)
		switch in.Op {
		case isa.LDB:
			read = as.ReadU8
		case isa.LDH:
			read = as.ReadU16
		case isa.LDW:
			read = as.ReadU32
		default:
			read = as.ReadU64
		}
		if !lineAware {
			// Non-line-aware programs are only dispatched while the VM
			// has no hierarchy, so the Access charge can't apply.
			if in.Op == isa.LD {
				body = func(m *jitMachine) int32 {
					addr := *base + off
					if v, ok := as.FastRead64(addr); ok {
						*d = v
						return next
					}
					v, err := as.ReadU64(addr)
					if err != nil {
						return m.fail(pc, err)
					}
					*d = v
					return next
				}
				break
			}
			body = func(m *jitMachine) int32 {
				v, err := read(*base + off)
				if err != nil {
					return m.fail(pc, err)
				}
				*d = v
				return next
			}
			break
		}
		body = func(m *jitMachine) int32 {
			addr := *base + off
			v, err := read(addr)
			if err != nil {
				return m.fail(pc, err)
			}
			if h := m.vm.Hier; h != nil {
				m.cost += h.Access(addr, size, memsim.Read)
			}
			*d = v
			return next
		}

	case isa.STB, isa.STH, isa.STW, isa.ST:
		d, base := &regs[in.Rd], &regs[in.Rs1]
		off := uint64(int64(in.Imm))
		size := storeSize(in.Op)
		var write func(uint64, uint64) error
		switch in.Op {
		case isa.STB:
			write = as.WriteU8
		case isa.STH:
			write = as.WriteU16
		case isa.STW:
			write = as.WriteU32
		default:
			write = as.WriteU64
		}
		if !lineAware {
			if in.Op == isa.ST {
				body = func(m *jitMachine) int32 {
					addr := *base + off
					if as.FastWrite64(addr, *d) {
						return next
					}
					if err := as.WriteU64(addr, *d); err != nil {
						return m.fail(pc, err)
					}
					return next
				}
				break
			}
			body = func(m *jitMachine) int32 {
				if err := write(*base+off, *d); err != nil {
					return m.fail(pc, err)
				}
				return next
			}
			break
		}
		body = func(m *jitMachine) int32 {
			addr := *base + off
			if err := write(addr, *d); err != nil {
				return m.fail(pc, err)
			}
			if h := m.vm.Hier; h != nil {
				m.cost += h.Access(addr, size, memsim.Write)
			}
			return next
		}

	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU:
		a, b := &regs[in.Rs1], &regs[in.Rs2]
		tva := branchTarget(pc, in.Imm)
		if tva >= r.Start && tva < r.End {
			t := int32((tva - r.Start) >> 3)
			switch in.Op {
			case isa.BEQ:
				body = func(m *jitMachine) int32 {
					if *a == *b {
						return t
					}
					return next
				}
			case isa.BNE:
				body = func(m *jitMachine) int32 {
					if *a != *b {
						return t
					}
					return next
				}
			case isa.BLT:
				body = func(m *jitMachine) int32 {
					if int64(*a) < int64(*b) {
						return t
					}
					return next
				}
			case isa.BGE:
				body = func(m *jitMachine) int32 {
					if int64(*a) >= int64(*b) {
						return t
					}
					return next
				}
			case isa.BLTU:
				body = func(m *jitMachine) int32 {
					if *a < *b {
						return t
					}
					return next
				}
			default: // BGEU
				body = func(m *jitMachine) int32 {
					if *a >= *b {
						return t
					}
					return next
				}
			}
		} else {
			// Out-of-region branch target: taken means escaping to the
			// dispatcher. Cold by construction.
			var cond func() bool
			switch in.Op {
			case isa.BEQ:
				cond = func() bool { return *a == *b }
			case isa.BNE:
				cond = func() bool { return *a != *b }
			case isa.BLT:
				cond = func() bool { return int64(*a) < int64(*b) }
			case isa.BGE:
				cond = func() bool { return int64(*a) >= int64(*b) }
			case isa.BLTU:
				cond = func() bool { return *a < *b }
			default:
				cond = func() bool { return *a >= *b }
			}
			body = func(m *jitMachine) int32 {
				if cond() {
					m.pc = tva
					return jitEscape
				}
				return next
			}
		}

	case isa.JMP:
		tva := branchTarget(pc, in.Imm)
		if tva >= r.Start && tva < r.End {
			t := int32((tva - r.Start) >> 3)
			body = func(m *jitMachine) int32 { return t }
		} else {
			body = func(m *jitMachine) int32 {
				m.pc = tva
				return jitEscape
			}
		}
	case isa.CALL:
		tva := branchTarget(pc, in.Imm)
		if tva >= r.Start && tva < r.End {
			t := int32((tva - r.Start) >> 3)
			body = func(m *jitMachine) int32 {
				*lr = nextVA
				return t
			}
		} else {
			body = func(m *jitMachine) int32 {
				*lr = nextVA
				m.pc = tva
				return jitEscape
			}
		}
	case isa.CALLR:
		s := &regs[in.Rs1]
		body = func(m *jitMachine) int32 {
			*lr = nextVA
			return p.enter(m, *s)
		}
	case isa.RET:
		body = func(m *jitMachine) int32 {
			return p.enter(m, *lr)
		}

	case isa.CALLG, isa.LDG:
		if r.GotVA == 0 {
			err := fmt.Errorf("%s executed outside a loaded module (untransformed jam?)", in)
			body = func(m *jitMachine) int32 {
				return m.fail(pc, err)
			}
			break
		}
		slotVA := r.GotVA + uint64(in.Imm)*8
		if in.Op == isa.LDG {
			d := &regs[in.Rd]
			body = func(m *jitMachine) int32 {
				v, err := as.ReadU64(slotVA)
				if err != nil {
					return m.fail(pc, err)
				}
				if h := m.vm.Hier; h != nil {
					m.cost += h.Access(slotVA, 8, memsim.Read)
				}
				*d = v
				return next
			}
		} else {
			body = func(m *jitMachine) int32 {
				v, err := as.ReadU64(slotVA)
				if err != nil {
					return m.fail(pc, err)
				}
				if h := m.vm.Hier; h != nil {
					m.cost += h.Access(slotVA, 8, memsim.Read)
				}
				*lr = nextVA
				return p.enter(m, v)
			}
		}

	case isa.CALLP, isa.LDP:
		gpSlot := r.GpSlotVA
		off := uint64(in.Imm) * 8
		imm := in.Imm
		if in.Op == isa.LDP {
			d := &regs[in.Rd]
			body = func(m *jitMachine) int32 {
				gp, err := as.ReadU64(gpSlot)
				if err != nil {
					return m.fail(pc, fmt.Errorf("GOT pointer slot: %w", err))
				}
				slotVA := gp + off
				v, err := as.ReadU64(slotVA)
				if err != nil {
					return m.fail(pc, fmt.Errorf("GOT slot %d via 0x%x: %w", imm, gp, err))
				}
				if h := m.vm.Hier; h != nil {
					m.cost += h.Access(gpSlot, 8, memsim.Read)
					m.cost += h.Access(slotVA, 8, memsim.Read)
				}
				*d = v
				return next
			}
		} else {
			body = func(m *jitMachine) int32 {
				gp, err := as.ReadU64(gpSlot)
				if err != nil {
					return m.fail(pc, fmt.Errorf("GOT pointer slot: %w", err))
				}
				slotVA := gp + off
				v, err := as.ReadU64(slotVA)
				if err != nil {
					return m.fail(pc, fmt.Errorf("GOT slot %d via 0x%x: %w", imm, gp, err))
				}
				if h := m.vm.Hier; h != nil {
					m.cost += h.Access(gpSlot, 8, memsim.Read)
					m.cost += h.Access(slotVA, 8, memsim.Read)
				}
				*lr = nextVA
				return p.enter(m, v)
			}
		}

	default:
		op := in.Op
		body = func(m *jitMachine) int32 {
			return m.fail(pc, fmt.Errorf("unimplemented opcode %d", op))
		}
	}
	return wrapStep(pc, line, lineAware, body)
}

// ---------------------------------------------------------------------
// Dispatch.

// callCompiled is the steady-state Call path: the same outer loop as the
// interpreter (retMagic, native window, region resolution), with region
// bodies executed through their compiled programs. region, when non-nil,
// is the one holding entry. A region met without a translation for the
// VM's current flags — mapped under UseInterpreter, a cold jam entered
// through plain Call, timing or exec checking switched since — is
// compiled here.
func (vm *VM) callCompiled(region *Region, entry uint64) (uint64, sim.Duration, error) {
	m := &vm.mach
	m.vm = vm
	m.cost = 0
	m.instrs = 0
	m.budget = vm.InstrBudget
	m.pc = entry
	m.err = nil
	m.lastFetchLine = 1 // impossible line value forces first fetch
	m.hotLines = [8]uint64{}
	m.hotIdx = 0
	env := &vm.env
	env.Stdout = vm.Stdout

	lineAware := vm.Hier != nil || vm.CheckExec
	pc := entry
	for {
		if pc == retMagic {
			break
		}
		if pc >= vm.nativeBase && pc < vm.nativeEnd {
			idx := int(pc-vm.nativeBase) / 8
			if idx >= len(vm.natives) {
				return vm.failCompiled(m, region, pc, fmt.Errorf("call to unbound native slot %d", idx))
			}
			m.cost += model.Cycles(20) // call/return overhead
			vm.callCost = m.cost
			ret, err := vm.natives[idx](env, [6]uint64{
				vm.regs[0], vm.regs[1], vm.regs[2], vm.regs[3], vm.regs[4], vm.regs[5],
			})
			m.cost = vm.callCost
			if err != nil {
				return vm.failCompiled(m, region, pc, fmt.Errorf("native %s: %w", vm.nativeName[idx], err))
			}
			vm.regs[0] = ret
			pc = vm.regs[isa.RegLR]
			continue
		}
		if region == nil || pc < region.Start || pc >= region.End {
			region = vm.findRegion(pc)
			if region == nil {
				return vm.failCompiled(m, region, pc, fmt.Errorf("jump to unmapped code"))
			}
		}
		prog := region.prog
		if prog == nil || prog.lineAware != lineAware {
			prog = vm.compileRegion(region)
			region.prog = prog
		}
		if (pc-region.Start)&7 != 0 {
			// Misaligned entry: the interpreter's floor-indexed fetch is
			// the contract there — hand it the whole machine state.
			vm.JITDeopts++
			st := intState{
				pc:            pc,
				cost:          m.cost,
				instrs:        m.instrs,
				region:        region,
				lastFetchLine: m.lastFetchLine,
				hotLines:      m.hotLines,
				hotIdx:        m.hotIdx,
			}
			return vm.interpret(&st)
		}
		res := prog.run(m, int32((pc-region.Start)>>3))
		if res == jitFault {
			return vm.failCompiled(m, region, m.pc, m.err)
		}
		pc = m.pc
	}

	instrCost := model.Cycles(float64(m.instrs) * model.VMCyclesPerInstr)
	total := m.cost + instrCost
	vm.TotalInstrs += m.instrs
	vm.TotalCost += total
	return vm.regs[0], total, nil
}

// failCompiled finishes a faulted compiled call with exactly the
// interpreter's fail() accounting and Fault construction.
func (vm *VM) failCompiled(m *jitMachine, region *Region, pc uint64, err error) (uint64, sim.Duration, error) {
	instrCost := model.Cycles(float64(m.instrs) * model.VMCyclesPerInstr)
	vm.TotalInstrs += m.instrs
	total := m.cost + instrCost
	vm.TotalCost += total
	f := &Fault{PC: pc, Err: err}
	if region != nil && pc >= region.Start && pc < region.End {
		f.Instr = region.instrs[(pc-region.Start)/isa.InstrSize].String()
	}
	return 0, total, f
}
