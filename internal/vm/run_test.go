package vm

import (
	"errors"
	"strings"
	"testing"

	"twochains/internal/isa"
	"twochains/internal/mem"
)

// TestStraightLineRunPins pins what a call reports at the edges of the
// interpret loop's straight-line runs: loops inside one 64-byte line and
// across two, a misaligned call target whose fall-through crosses a line
// mid-instruction, code that falls off the end of its region mid-line, a
// budget that runs out inside a line, and a fall-through into a page
// without execute permission. Every row — result, whole Fault text,
// simulated cost with the cost model off and on, instruction count — was
// captured at commit b7f2aff, whose loop checked the sentinel, the native
// page, the region and the fetch line before every instruction.
func TestStraightLineRunPins(t *testing.T) {
	lib := func(name, src string, args ...uint64) func(*testing.T, *harness) (uint64, []uint64) {
		return func(t *testing.T, h *harness) (uint64, []uint64) {
			return h.loadLib(t, name, src).Exports["f"], args
		}
	}
	// raw maps code at the start of fresh pages of the given permissions,
	// outside any library, and returns its first instruction as the entry.
	raw := func(pages int, perm mem.Perm, in ...isa.Instr) func(*testing.T, *harness) (uint64, []uint64) {
		return func(t *testing.T, h *harness) (uint64, []uint64) {
			code := isa.EncodeAll(in)
			va, err := h.as.AllocPages("raw", pages*mem.PageSize, perm)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.as.WriteBytes(va, code); err != nil {
				t.Fatal(err)
			}
			if pages > 1 {
				// Only the first page may be executed.
				if err := h.as.Protect(va+mem.PageSize, mem.PageSize*(pages-1), mem.PermRW); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := h.vm.AddRegion(va, code, 0); err != nil {
				t.Fatal(err)
			}
			return va, nil
		}
	}
	nops := func(n int, tail ...isa.Instr) []isa.Instr {
		return append(make([]isa.Instr, n), tail...) // the zero Instr is a NOP
	}
	type outcome struct {
		ret    uint64
		fault  string
		cost   int64
		instrs uint64
	}
	cases := []struct {
		name           string
		budget         uint64
		prep           func(*testing.T, *harness) (entry uint64, args []uint64)
		untimed, timed outcome
	}{
		// Library text starts line-aligned: this loop (offsets 16–40) never
		// leaves line 0.
		{"loop-inside-one-line", 0, lib("l1", `
.text
.global f
f:
    movi r1, 0
    movi r2, 0
tl:
    bge  r2, r0, td
    add  r1, r1, r2
    addi r2, r2, 1
    jmp  tl
td:
    mov r0, r1
    ret
`, 200), outcome{19900, "", 417981, 805},
			outcome{19900, "", 507981, 805}},
		// Five leading NOPs put the loop at offsets 56–80, across lines 0 and 1.
		{"loop-across-two-lines", 0, lib("l2", `
.text
.global f
f:
    nop
    nop
    nop
    nop
    nop
    movi r1, 0
    movi r2, 0
tl:
    bge  r2, r0, td
    add  r1, r1, r2
    addi r2, r2, 1
    jmp  tl
td:
    mov r0, r1
    ret
`, 200), outcome{19900, "", 420577, 810},
			outcome{19900, "", 544577, 810}},
		// callr lands 3 bytes into g (offset 59): pc stays misaligned, runs
		// g's two instructions and crosses into line 1 at offset 67.
		{"misaligned-target-crosses-line", 0, lib("mis", `
.text
.global f
f:
    mov  r9, lr
    lea  r1, g
    addi r1, r1, 3
    callr r1
    mov  lr, r9
    addi r0, r0, 100
    ret
    nop
g:
    movi r0, 7
    ret
`), outcome{107, "", 4673, 9},
			outcome{107, "", 128673, 9}},
		{"fall-off-region-mid-line", 0, raw(1, mem.PermRWX,
			isa.Instr{Op: isa.MOVI, Rd: 0, Imm: 5}, isa.Instr{Op: isa.ADDI, Rd: 0, Rs1: 0, Imm: 1}),
			outcome{0, "vm: fault at pc=0x21010: jump to unmapped code", 1038, 2},
			outcome{0, "vm: fault at pc=0x21010: jump to unmapped code", 91038, 2}},
		{"budget-inside-one-line", 10, lib("spin2", ".text\n.global f\nf:\n    movi r1, 0\nspin:\n    addi r1, r1, 1\n    jmp spin\n"),
			outcome{0, "vm: fault at pc=0x21010 [jmp -1]: instruction budget exceeded (10)", 5712, 11},
			outcome{0, "vm: fault at pc=0x21010 [jmp -1]: instruction budget exceeded (10)", 95712, 11}},
		// 512 NOPs fill the executable page; the MOVI after them is the first
		// instruction of a read-write page, reached by fall-through.
		{"fall-through-into-non-exec-page", 0, raw(2, mem.PermRWX,
			nops(512, isa.Instr{Op: isa.MOVI, Rd: 0, Imm: 1}, isa.Instr{Op: isa.RET})...),
			outcome{0, "vm: fault at pc=0x22000 [movi r0, 1]: mem: exec fault at 0x22000 (8 bytes): page is rw-", 265846, 512},
			outcome{0, "vm: fault at pc=0x22000 [movi r0, 1]: mem: exec fault at 0x22000 (8 bytes): page is rw-", 2497846, 512}},
	}
	for _, c := range cases {
		for _, timed := range []bool{false, true} {
			want, leg := c.untimed, "untimed"
			if timed {
				want, leg = c.timed, "timed"
			}
			h := newHarness(t, timed)
			h.vm.CheckExec = true
			if c.budget != 0 {
				h.vm.InstrBudget = c.budget
			}
			entry, args := c.prep(t, h)
			ret, cost, err := h.vm.Call(entry, args...)
			got := outcome{ret: ret, cost: int64(cost), instrs: h.vm.Instrs}
			if err != nil {
				var f *Fault
				if !errors.As(err, &f) {
					t.Errorf("%s/%s: error is a %T, not a *Fault: %v", c.name, leg, err, err)
				}
				got.fault = err.Error()
			}
			if got != want {
				t.Errorf("%s/%s:\n got %#v\nwant %#v", c.name, leg, got, want)
			}
		}
	}
}

// TestCodeOverSentinelRefused: no region may cover the return sentinel, so
// a call can only end there by transferring control to it.
func TestCodeOverSentinelRefused(t *testing.T) {
	h := newHarness(t, false)
	code := isa.EncodeAll([]isa.Instr{{Op: isa.NOP}, {Op: isa.RET}})
	for _, start := range []uint64{retMagic, retMagic - 8} {
		if _, err := h.vm.AddRegion(start, code, 0); !errors.Is(err, ErrBadCode) || !strings.Contains(err.Error(), "sentinel") {
			t.Errorf("AddRegion(0x%x): err = %v, want ErrBadCode naming the sentinel", start, err)
		}
		if _, err := h.vm.EnsureJam(start, code); !errors.Is(err, ErrBadCode) {
			t.Errorf("EnsureJam(0x%x): err = %v, want ErrBadCode", start, err)
		}
	}
	if _, err := h.vm.AddRegion(retMagic-16, code, 0); err != nil {
		t.Errorf("code ending just below the sentinel: %v", err)
	}
}
