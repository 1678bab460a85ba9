// Package vm executes JAM code inside a node's simulated address space.
//
// The interpreter is the stand-in for the receiver CPU executing injected
// machine code in the paper: instruction fetches and data accesses go
// through the node's memsim hierarchy (so stashed message bytes are cheaper
// to execute than DRAM-resident ones), GOT-indirect instructions implement
// both the module-GOT form (CALLG/LDG, normal loaded libraries) and the
// message-GOT form (CALLP/LDP, injected jams), and calls can cross between
// injected code, library code, and native "C library" functions.
//
// Execution has one engine: the interpret loop below. Results, register
// file, memory effects, Fault values, instruction counts and simulated
// costs are whatever it produces, and TestFaultAndBudgetPins and the
// workload golden rows pin them by value. Code is validated and decoded
// once when it is mapped (AddRegion for library text, EnsureJam for
// injected jams, which shares a decode between every slot holding the
// same bytes); a call walks the decoded instructions.
package vm

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"twochains/internal/isa"
	"twochains/internal/mem"
	"twochains/internal/memsim"
	"twochains/internal/model"
	"twochains/internal/sim"
)

// retMagic is the sentinel return address installed in LR for the outermost
// call; returning to it ends execution.
const retMagic = 0xFFFF_FFFF_FFFF_0000

// DefaultInstrBudget bounds a single invocation, catching runaway jams.
const DefaultInstrBudget = 200_000_000

// Region is a mapped code object the VM can execute: a loaded library's
// text or an injected jam inside a mailbox frame.
type Region struct {
	Start, End uint64 // text VA range
	// GotVA is the module GOT base for CALLG/LDG; zero for jams, whose
	// GOT travels with the message.
	GotVA uint64
	// GpSlotVA is the address of the GOT pointer slot for CALLP/LDP —
	// by convention Start-8, "just before the code" (paper Fig. 2).
	GpSlotVA uint64
	instrs   []isa.Instr
}

// NativeFunc is a host-implemented library function ("existing C library"
// in the paper's terms). Arguments arrive in r0-r5; the return value goes
// to r0.
type NativeFunc func(env *Env, args [6]uint64) (uint64, error)

// Env gives natives access to the executing node's state and cost meter.
type Env struct {
	AS     *mem.AddressSpace
	Hier   *memsim.Hierarchy
	Stdout io.Writer
	cost   *sim.Duration
}

// Charge adds explicit simulated time (for natives modelling work beyond
// their memory traffic).
func (e *Env) Charge(d sim.Duration) { *e.cost += d }

// Access charges a memory access through the hierarchy, if timing is on.
func (e *Env) Access(addr uint64, size int, k memsim.Kind) {
	if e.Hier != nil {
		*e.cost += e.Hier.Access(addr, size, k)
	}
}

// VM is one node's execution engine. Not safe for concurrent use.
type VM struct {
	AS   *mem.AddressSpace
	Hier *memsim.Hierarchy // nil disables timing
	// Stdout receives printf/puts output from executed code.
	Stdout io.Writer
	// CheckExec enforces page execute permissions on instruction fetch
	// (the paper's mailbox pages are RWX by default; the security modes
	// in §V tighten this).
	CheckExec bool
	// InstrBudget bounds instructions per Call.
	InstrBudget uint64
	// regions holds the AddRegion mappings — library text, a handful per
	// node — in mapping order; injected code lives in jams.
	regions    []*Region
	natives    []NativeFunc
	nativeName []string
	nativeBase uint64
	nativeEnd  uint64

	// jams holds the mapped injected-code regions, sorted by Start and
	// pairwise disjoint: a mailbox slot that keeps receiving the same
	// element (the steady state of every injection stream) re-executes its
	// cached region, verified by a byte compare against the live frame.
	jams []*jamSlot
	// bodies is the bounded content-keyed table of decoded jam bodies,
	// oldest replaced first: slots holding the same text share one decode.
	bodies   []*jamBody
	bodyNext int

	// regs is the register file, one word for every value of a uint8
	// register field so the interpret loop indexes it without bounds
	// checks; only the first isa.NumRegs exist (Validate refuses the rest).
	regs      [256]uint64
	stackVA   uint64
	stackSize int

	// env and callCost are the reusable per-Call execution context: Env
	// escapes into native calls, so keeping one per VM (legal because a
	// VM runs one Call at a time) keeps the steady-state Call path free
	// of heap allocation.
	env      Env
	callCost sim.Duration

	// JITCompiles and JITDeopts are always 0: nothing is translated.
	//
	// Deprecated: inert since PR 21. Kept until benchmark/ stops naming
	// them.
	JITCompiles uint64 //tclint:allow neverset an item 7(a) shim: benchmark/ still reads it
	JITDeopts   uint64 //tclint:allow neverset an item 7(a) shim: benchmark/ still reads it

	// SlotHits, SlotMisses and Decodes count EnsureJam's outcomes: the
	// same bytes at the same VA, a region (re)mapped, and a miss whose
	// body was not in the body table. Instrs counts instructions across
	// calls. Each depends only on what the VM was given to run.
	SlotHits   uint64
	SlotMisses uint64
	Decodes    uint64
	Instrs     uint64
}

// jamBodyCap bounds the body table. A node sees one body per element it is
// sent, so real traffic stays far below it; the bound is for hostile or
// generated streams of distinct bodies.
const jamBodyCap = 64

// ErrBadCode is wrapped by every AddRegion/EnsureJam rejection of the
// code bytes or their VA range.
var ErrBadCode = errors.New("invalid code")

// jamBody is one distinct jam text and its decode. Both slices are
// immutable once built: every slot mapping the same bytes shares them.
type jamBody struct {
	code   []byte
	instrs []isa.Instr
}

// jamSlot is one mapped injected-code region and the body it was made
// from.
type jamSlot struct {
	region Region
	body   *jamBody
}

// New creates a VM bound to an address space. hier may be nil to disable
// timing (functional tests); stdout may be nil to discard output.
func New(as *mem.AddressSpace, hier *memsim.Hierarchy, stdout io.Writer) (*VM, error) {
	vm := &VM{
		AS:          as,
		Hier:        hier,
		Stdout:      stdout,
		InstrBudget: DefaultInstrBudget,
	}
	vm.env = Env{AS: as, Hier: hier, Stdout: stdout, cost: &vm.callCost}
	base, err := as.AllocPages("vm:natives", mem.PageSize, mem.PermR)
	if err != nil {
		return nil, err
	}
	vm.nativeBase = base
	vm.nativeEnd = base + mem.PageSize
	stack, err := as.AllocPages("vm:stack", 64*1024, mem.PermRW)
	if err != nil {
		return nil, err
	}
	vm.stackVA = stack
	vm.stackSize = 64 * 1024
	return vm, nil
}

// BindNative registers fn under name and returns its callable VA.
func (vm *VM) BindNative(name string, fn NativeFunc) (uint64, error) {
	if len(vm.natives) >= mem.PageSize/8 {
		return 0, fmt.Errorf("vm: native table full")
	}
	va := vm.nativeBase + uint64(len(vm.natives)*8)
	vm.natives = append(vm.natives, fn)
	vm.nativeName = append(vm.nativeName, name)
	return va, nil
}

// decodeText validates and decodes code bound for [start, start+len(code)).
func decodeText(start uint64, code []byte) ([]isa.Instr, error) {
	if start+uint64(len(code)) < start {
		return nil, fmt.Errorf("vm: code at 0x%x: %w: %d bytes wrap the address space", start, ErrBadCode, len(code))
	}
	if start <= retMagic && retMagic-start < uint64(len(code)) {
		return nil, fmt.Errorf("vm: code at 0x%x: %w: covers the return sentinel 0x%x", start, ErrBadCode, uint64(retMagic))
	}
	instrs, err := isa.DecodeAll(code)
	if err != nil {
		return nil, fmt.Errorf("vm: code at 0x%x: %w: %v", start, ErrBadCode, err)
	}
	for i, in := range instrs {
		if err := in.Validate(); err != nil {
			return nil, fmt.Errorf("vm: code at 0x%x: %w: instr %d: %v", start, ErrBadCode, i, err)
		}
	}
	return instrs, nil
}

// AddRegion maps library text at [start, start+len(code)) for execution.
// gotVA is the module GOT. The code is validated and decoded here, once.
// Injected code arrives through EnsureJam instead.
func (vm *VM) AddRegion(start uint64, code []byte, gotVA uint64) (*Region, error) {
	instrs, err := decodeText(start, code)
	if err != nil {
		return nil, err
	}
	r := &Region{
		Start:    start,
		End:      start + uint64(len(code)),
		GotVA:    gotVA,
		GpSlotVA: start - 8,
		instrs:   instrs,
	}
	vm.regions = append(vm.regions, r)
	return r, nil
}

// EnsureJam returns the mapped region for injected code at
// [start, start+len(code)).
//
// Hit: the bytes are unchanged since the last delivery into this VA — the
// steady state of a mailbox slot receiving the same element — and the
// cached region is returned.
//
// Miss: the slot's content changed (different element, RIED hot-swap
// rebinding, truncation). Every cached region overlapping the new range
// is unmapped and a fresh region is mapped over the body's decode, taken
// from the content-keyed body table when this VM has seen the same text
// before, at any VA, and validated and decoded otherwise. A byte compare
// decides both.
//
// Mappings are replaced, never leaked: jams are keyed by VA, disjoint,
// and a mailbox region has finitely many slots; the body table is bounded
// by jamBodyCap.
func (vm *VM) EnsureJam(start uint64, code []byte) (*Region, error) {
	i := vm.jamAfter(start)
	if i > 0 {
		s := vm.jams[i-1]
		if s.region.Start == start && bytes.Equal(s.body.code, code) {
			vm.SlotHits++
			return &s.region, nil
		}
	}
	body, err := vm.bodyFor(start, code)
	if err != nil {
		return nil, err
	}
	vm.SlotMisses++
	// A different element has a different GOT table length, so its body
	// lands at a shifted VA within the same frame slot: the new region
	// replaces every cached one it overlaps (or shares a start with — an
	// empty body overlaps nothing), or a stale decode could shadow it in
	// findRegion. jams is sorted and disjoint, so those are the run
	// jams[lo:hi] around the insertion point.
	end := start + uint64(len(code))
	lo := i
	if i > 0 && (vm.jams[i-1].region.End > start || vm.jams[i-1].region.Start == start) {
		lo = i - 1
	}
	hi := i
	for hi < len(vm.jams) && vm.jams[hi].region.Start < end {
		hi++
	}
	s := &jamSlot{
		region: Region{Start: start, End: end, GpSlotVA: start - 8, instrs: body.instrs},
		body:   body,
	}
	if lo == hi {
		vm.jams = append(vm.jams, nil)
		copy(vm.jams[lo+1:], vm.jams[lo:])
	} else {
		vm.jams = append(vm.jams[:lo+1], vm.jams[hi:]...)
	}
	vm.jams[lo] = s
	return &s.region, nil
}

// jamAfter returns the index of the first jam slot that starts above va;
// the slot before it is the only one that can contain va.
func (vm *VM) jamAfter(va uint64) int {
	lo, hi := 0, len(vm.jams)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if vm.jams[mid].region.Start <= va {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// bodyFor returns the decoded body for code, from the body table when
// this VM has decoded the same bytes before. bytes.Equal compares lengths
// first, and the shipped element bodies all differ in length, so a miss
// costs one length compare per body.
func (vm *VM) bodyFor(start uint64, code []byte) (*jamBody, error) {
	for _, b := range vm.bodies {
		if bytes.Equal(b.code, code) {
			return b, nil
		}
	}
	instrs, err := decodeText(start, code)
	if err != nil {
		return nil, err
	}
	vm.Decodes++
	b := &jamBody{code: append([]byte(nil), code...), instrs: instrs}
	if len(vm.bodies) < jamBodyCap {
		vm.bodies = append(vm.bodies, b)
	} else {
		vm.bodies[vm.bodyNext] = b
		vm.bodyNext = (vm.bodyNext + 1) % jamBodyCap
	}
	return b, nil
}

// RemoveRegion unmaps a region AddRegion or EnsureJam returned.
func (vm *VM) RemoveRegion(r *Region) {
	for i, x := range vm.regions {
		if x == r {
			vm.regions = append(vm.regions[:i], vm.regions[i+1:]...)
			return
		}
	}
	if i := vm.jamAfter(r.Start); i > 0 && &vm.jams[i-1].region == r {
		vm.jams = append(vm.jams[:i-1], vm.jams[i:]...)
	}
}

func (vm *VM) findRegion(pc uint64) *Region {
	for _, r := range vm.regions {
		if pc >= r.Start && pc < r.End {
			return r
		}
	}
	if i := vm.jamAfter(pc); i > 0 && pc < vm.jams[i-1].region.End {
		return &vm.jams[i-1].region
	}
	return nil
}

// Fault is a VM execution error with machine context.
type Fault struct {
	PC    uint64
	Instr string
	Err   error
}

func (f *Fault) Error() string {
	if f.Instr != "" {
		return fmt.Sprintf("vm: fault at pc=0x%x [%s]: %v", f.PC, f.Instr, f.Err)
	}
	return fmt.Sprintf("vm: fault at pc=0x%x: %v", f.PC, f.Err)
}

//tclint:allow deadexport errors.As and errors.Is call it through an interface inside package errors
func (f *Fault) Unwrap() error { return f.Err }

// Call executes the function at entry with up to six arguments, returning
// r0 and the simulated cost of the invocation.
func (vm *VM) Call(entry uint64, args ...uint64) (uint64, sim.Duration, error) {
	return vm.CallRegion(nil, entry, args...)
}

// CallRegion is Call for an entry point inside r, the region EnsureJam
// just returned: execution starts in r without looking the entry up.
func (vm *VM) CallRegion(r *Region, entry uint64, args ...uint64) (uint64, sim.Duration, error) {
	if err := vm.setupCall(args); err != nil {
		return 0, 0, err
	}
	return vm.interpret(r, entry)
}

// setupCall resets the register file for a fresh invocation.
func (vm *VM) setupCall(args []uint64) error {
	if len(args) > 6 {
		return fmt.Errorf("vm: too many arguments (%d > 6)", len(args))
	}
	clear(vm.regs[:isa.NumRegs])
	copy(vm.regs[:], args)
	vm.regs[isa.RegSP] = vm.stackVA + uint64(vm.stackSize)
	vm.regs[isa.RegLR] = retMagic
	return nil
}

// interpret runs the interpret loop from pc until return or fault. region
// is the region pc lies in when the caller knows it, nil otherwise.
// Registers live in vm.regs, already set up.
//
// Each time pc reaches a new 64-byte line, the outer loop checks it against
// the return sentinel, the native page and the region and charges the
// line's fetch. The run that follows dispatches while pc stays in the part
// of that line inside the region, with none of those checks: no region
// covers the sentinel (decodeText refuses it) and the native page is
// line-aligned, so none of their answers can change before pc leaves.
func (vm *VM) interpret(region *Region, pc uint64) (uint64, sim.Duration, error) {
	// No closure takes the address of cost, instrs or pc. cost syncs with
	// the per-VM Env's cost slot, which natives write, around native calls.
	var cost sim.Duration
	var instrs uint64
	env := &vm.env
	env.Stdout = vm.Stdout
	as, hier, budget, r := vm.AS, vm.Hier, vm.InstrBudget, &vm.regs

	lastFetchLine := uint64(1) // an impossible line value forcing first fetch
	// hotLines is a tiny L1I/loop-buffer model: lines fetched recently are
	// re-entered for free, so a loop body straddling a line boundary does
	// not pay the cache load-to-use latency on every iteration.
	var hotLines [8]uint64
	hotIdx := 0

	for pc != retMagic {
		// Native call target: run host function and return to LR.
		if pc >= vm.nativeBase && pc < vm.nativeEnd {
			idx := int(pc-vm.nativeBase) / 8
			if idx >= len(vm.natives) {
				return vm.fault(region, pc, instrs, cost, fmt.Errorf("call to unbound native slot %d", idx))
			}
			cost += model.Cycles(20) // call/return overhead
			vm.callCost = cost
			ret, err := vm.natives[idx](env, [6]uint64{r[0], r[1], r[2], r[3], r[4], r[5]})
			cost = vm.callCost
			if err != nil {
				return vm.fault(region, pc, instrs, cost, fmt.Errorf("native %s: %w", vm.nativeName[idx], err))
			}
			r[0] = ret
			pc = r[isa.RegLR]
			continue
		}
		if region == nil || pc < region.Start || pc >= region.End {
			region = vm.findRegion(pc)
			if region == nil {
				return vm.fault(nil, pc, instrs, cost, fmt.Errorf("jump to unmapped code"))
			}
		}
		// Per-line fetch charging and optional X enforcement: lines never
		// straddle pages, so one check covers all instructions in the line.
		// Sequential fall-through into the next line rides the fetch-ahead
		// stream; a taken branch to a new line pays the full latency.
		line := pc &^ 63
		if line != lastFetchLine {
			seqFetch := line == lastFetchLine+64
			lastFetchLine = line
			if vm.CheckExec {
				if err := as.FetchCheck(pc, isa.InstrSize); err != nil {
					return vm.fault(region, pc, instrs, cost, err)
				}
			}
			hot := false
			for _, h := range hotLines {
				if h == line+1 {
					hot = true
					break
				}
			}
			if !hot {
				if hier != nil {
					// What AccessSeq charges a line that hits L2: the
					// load-to-use latency when it leads, one streamed
					// cycle when it follows.
					switch {
					case !hier.Hit(line, 64):
						cost += hier.AccessSeq(line, 64, memsim.Fetch, seqFetch)
					case seqFetch:
						cost += model.Cycles(1)
					default:
						cost += model.L2HitLat
					}
				}
				hotLines[hotIdx] = line + 1
				hotIdx = (hotIdx + 1) & 7
			}
		}
		// The run is the part of this line inside the region: [lo, lo+span].
		lo := max(line, region.Start)
		span := min(line+63, region.End-1) - lo
		code, start := region.instrs, region.Start

	run:
		instrs++
		if instrs > budget {
			return vm.fault(region, pc, instrs, cost, fmt.Errorf("instruction budget exceeded (%d)", budget))
		}
		in := code[(pc-start)/isa.InstrSize]
		next := pc + isa.InstrSize

		switch in.Op {
		case isa.NOP:
		case isa.HALT:
			next = retMagic
		case isa.MOVI:
			r[in.Rd] = uint64(int64(in.Imm))
		case isa.MOVIU:
			r[in.Rd] = (r[in.Rd] & 0xFFFFFFFF) | uint64(uint32(in.Imm))<<32
		case isa.MOV:
			r[in.Rd] = r[in.Rs1]
		case isa.LEA:
			r[in.Rd] = pc + uint64(int64(in.Imm))
		case isa.ADD:
			r[in.Rd] = r[in.Rs1] + r[in.Rs2]
		case isa.SUB:
			r[in.Rd] = r[in.Rs1] - r[in.Rs2]
		case isa.MUL:
			r[in.Rd] = r[in.Rs1] * r[in.Rs2]
		case isa.DIV:
			if r[in.Rs2] == 0 {
				return vm.fault(region, pc, instrs, cost, fmt.Errorf("division by zero"))
			}
			r[in.Rd] = uint64(int64(r[in.Rs1]) / int64(r[in.Rs2]))
		case isa.REM:
			if r[in.Rs2] == 0 {
				return vm.fault(region, pc, instrs, cost, fmt.Errorf("division by zero"))
			}
			r[in.Rd] = uint64(int64(r[in.Rs1]) % int64(r[in.Rs2]))
		case isa.AND:
			r[in.Rd] = r[in.Rs1] & r[in.Rs2]
		case isa.OR:
			r[in.Rd] = r[in.Rs1] | r[in.Rs2]
		case isa.XOR:
			r[in.Rd] = r[in.Rs1] ^ r[in.Rs2]
		case isa.SHL:
			r[in.Rd] = r[in.Rs1] << (r[in.Rs2] & 63)
		case isa.SHR:
			r[in.Rd] = r[in.Rs1] >> (r[in.Rs2] & 63)
		case isa.SAR:
			r[in.Rd] = uint64(int64(r[in.Rs1]) >> (r[in.Rs2] & 63))
		case isa.ADDI:
			r[in.Rd] = r[in.Rs1] + uint64(int64(in.Imm))
		case isa.MULI:
			r[in.Rd] = r[in.Rs1] * uint64(int64(in.Imm))
		case isa.ANDI:
			r[in.Rd] = r[in.Rs1] & uint64(int64(in.Imm))
		case isa.ORI:
			r[in.Rd] = r[in.Rs1] | uint64(int64(in.Imm))
		case isa.XORI:
			r[in.Rd] = r[in.Rs1] ^ uint64(int64(in.Imm))
		case isa.SHLI:
			r[in.Rd] = r[in.Rs1] << (uint64(in.Imm) & 63)
		case isa.SHRI:
			r[in.Rd] = r[in.Rs1] >> (uint64(in.Imm) & 63)
		case isa.SLT:
			r[in.Rd] = b2u(int64(r[in.Rs1]) < int64(r[in.Rs2]))
		case isa.SLTU:
			r[in.Rd] = b2u(r[in.Rs1] < r[in.Rs2])
		case isa.SEQ:
			r[in.Rd] = b2u(r[in.Rs1] == r[in.Rs2])

		case isa.LDB, isa.LDH, isa.LDW, isa.LD:
			addr := r[in.Rs1] + uint64(int64(in.Imm))
			size := 1 << (in.Op - isa.LDB) // the four opcodes are consecutive
			var v uint64
			var err error
			switch in.Op {
			case isa.LDB:
				v, err = as.ReadU8(addr)
			case isa.LDH:
				v, err = as.ReadU16(addr)
			case isa.LDW:
				v, err = as.ReadU32(addr)
			default:
				var ok bool
				if v, ok = as.FastRead64(addr); !ok {
					v, err = as.ReadU64(addr)
				}
			}
			if err != nil {
				return vm.fault(region, pc, instrs, cost, err)
			}
			if hier != nil {
				if hier.Hit(addr, size) {
					cost += model.L2HitLat
				} else {
					cost += hier.Access(addr, size, memsim.Read)
				}
			}
			r[in.Rd] = v
		case isa.STB, isa.STH, isa.STW, isa.ST:
			addr := r[in.Rs1] + uint64(int64(in.Imm))
			size := 1 << (in.Op - isa.STB) // the four opcodes are consecutive
			var err error
			switch in.Op {
			case isa.STB:
				err = as.WriteU8(addr, r[in.Rd])
			case isa.STH:
				err = as.WriteU16(addr, r[in.Rd])
			case isa.STW:
				err = as.WriteU32(addr, r[in.Rd])
			default:
				if !as.FastWrite64(addr, r[in.Rd]) {
					err = as.WriteU64(addr, r[in.Rd])
				}
			}
			if err != nil {
				return vm.fault(region, pc, instrs, cost, err)
			}
			if hier != nil {
				if hier.Hit(addr, size) {
					cost += model.L2HitLat
				} else {
					cost += hier.Access(addr, size, memsim.Write)
				}
			}

		case isa.BEQ:
			if r[in.Rs1] == r[in.Rs2] {
				next = branchTarget(pc, in.Imm)
			}
		case isa.BNE:
			if r[in.Rs1] != r[in.Rs2] {
				next = branchTarget(pc, in.Imm)
			}
		case isa.BLT:
			if int64(r[in.Rs1]) < int64(r[in.Rs2]) {
				next = branchTarget(pc, in.Imm)
			}
		case isa.BGE:
			if int64(r[in.Rs1]) >= int64(r[in.Rs2]) {
				next = branchTarget(pc, in.Imm)
			}
		case isa.BLTU:
			if r[in.Rs1] < r[in.Rs2] {
				next = branchTarget(pc, in.Imm)
			}
		case isa.BGEU:
			if r[in.Rs1] >= r[in.Rs2] {
				next = branchTarget(pc, in.Imm)
			}
		case isa.JMP:
			next = branchTarget(pc, in.Imm)
		case isa.CALL:
			r[isa.RegLR] = next
			next = branchTarget(pc, in.Imm)
		case isa.CALLR:
			r[isa.RegLR] = next
			next = r[in.Rs1]
		case isa.RET:
			next = r[isa.RegLR]

		case isa.CALLG, isa.LDG:
			if region.GotVA == 0 {
				return vm.fault(region, pc, instrs, cost, fmt.Errorf("%s executed outside a loaded module (untransformed jam?)", in))
			}
			slotVA := region.GotVA + uint64(in.Imm)*8
			v, ok := as.FastRead64(slotVA)
			if !ok {
				var err error
				if v, err = as.ReadU64(slotVA); err != nil {
					return vm.fault(region, pc, instrs, cost, err)
				}
			}
			if hier != nil {
				if hier.Hit(slotVA, 8) {
					cost += model.L2HitLat
				} else {
					cost += hier.Access(slotVA, 8, memsim.Read)
				}
			}
			if in.Op == isa.LDG {
				r[in.Rd] = v
			} else {
				r[isa.RegLR] = next
				next = v
			}
		case isa.CALLP, isa.LDP:
			gp, ok := as.FastRead64(region.GpSlotVA)
			if !ok {
				var err error
				if gp, err = as.ReadU64(region.GpSlotVA); err != nil {
					return vm.fault(region, pc, instrs, cost, fmt.Errorf("GOT pointer slot: %w", err))
				}
			}
			slotVA := gp + uint64(in.Imm)*8
			v, ok := as.FastRead64(slotVA)
			if !ok {
				var err error
				if v, err = as.ReadU64(slotVA); err != nil {
					return vm.fault(region, pc, instrs, cost, fmt.Errorf("GOT slot %d via 0x%x: %w", in.Imm, gp, err))
				}
			}
			if hier != nil {
				if hier.Hit(region.GpSlotVA, 8) {
					cost += model.L2HitLat
				} else {
					cost += hier.Access(region.GpSlotVA, 8, memsim.Read)
				}
				if hier.Hit(slotVA, 8) {
					cost += model.L2HitLat
				} else {
					cost += hier.Access(slotVA, 8, memsim.Read)
				}
			}
			if in.Op == isa.LDP {
				r[in.Rd] = v
			} else {
				r[isa.RegLR] = next
				next = v
			}
		default:
			return vm.fault(region, pc, instrs, cost, fmt.Errorf("unimplemented opcode %d", in.Op))
		}
		pc = next
		if pc-lo <= span {
			goto run // still inside the run, by fall-through or a short branch
		}
	}
	return r[0], vm.charge(instrs, cost), nil
}

// charge adds a call's instructions to the VM's total and returns the
// call's whole cost.
func (vm *VM) charge(instrs uint64, cost sim.Duration) sim.Duration {
	vm.Instrs += instrs
	return cost + model.Cycles(float64(instrs)*model.VMCyclesPerInstr)
}

// fault ends a call at pc with err, charged like a return.
func (vm *VM) fault(region *Region, pc, instrs uint64, cost sim.Duration, err error) (uint64, sim.Duration, error) {
	f := &Fault{PC: pc, Err: err}
	if region != nil && pc >= region.Start && pc < region.End {
		f.Instr = region.instrs[(pc-region.Start)/isa.InstrSize].String()
	}
	return 0, vm.charge(instrs, cost), f
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func branchTarget(pc uint64, imm int32) uint64 {
	return pc + uint64(int64(imm)*isa.InstrSize)
}
