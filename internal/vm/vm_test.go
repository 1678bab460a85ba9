package vm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"twochains/internal/asm"
	"twochains/internal/elfobj"
	"twochains/internal/isa"
	"twochains/internal/linker"
	"twochains/internal/mem"
	"twochains/internal/memsim"
)

// harness bundles a node-like environment for VM tests.
type harness struct {
	as  *mem.AddressSpace
	ns  *linker.Namespace
	vm  *VM
	out bytes.Buffer
}

func newHarness(t testing.TB, withHier bool) *harness {
	t.Helper()
	h := &harness{
		as: mem.NewAddressSpace(8 << 20),
		ns: linker.NewNamespace(),
	}
	var hier *memsim.Hierarchy
	if withHier {
		hier = memsim.New(memsim.DefaultConfig())
	}
	v, err := New(h.as, hier, &h.out)
	if err != nil {
		t.Fatal(err)
	}
	h.vm = v
	if err := BindLibc(v, h.ns); err != nil {
		t.Fatal(err)
	}
	return h
}

func (h *harness) assemble(t testing.TB, name, src string) *elfobj.Object {
	t.Helper()
	obj, err := asm.Assemble(name, src)
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

// loadLib assembles, links, loads a single-object library and maps its
// text as a VM region.
func (h *harness) loadLib(t testing.TB, name, src string) *linker.Loaded {
	t.Helper()
	obj := h.assemble(t, name+".s", src)
	img, err := linker.LinkLibrary(name, []*elfobj.Object{obj})
	if err != nil {
		t.Fatal(err)
	}
	ld, err := linker.Load(h.as, h.ns, img, linker.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	code, err := h.as.ReadBytesDMA(ld.TextVA, ld.TextLen)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.vm.AddRegion(ld.TextVA, code, ld.GotVA); err != nil {
		t.Fatal(err)
	}
	return ld
}

// placeJam copies a jam into memory the way the mailbox runtime does:
// [GOT table][gp slot][body], binding extern GOT entries from the local
// namespace and local entries relative to the body. Returns the entry VA.
func (h *harness) placeJam(t *testing.T, j *linker.Jam) (entryVA uint64, region *Region) {
	t.Helper()
	total := j.ShippedSize()
	base, err := h.as.AllocPages("jamframe", total, mem.PermRWX)
	if err != nil {
		t.Fatal(err)
	}
	gotVA := base
	gpSlotVA := base + uint64(j.GotTableLen())
	codeVA := gpSlotVA + 8
	// Bind GOT.
	for i, g := range j.Got {
		var target uint64
		if g.Local {
			target = codeVA + uint64(g.Off)
		} else {
			va, ok := h.ns.Lookup(g.Name)
			if !ok {
				t.Fatalf("extern %q not in namespace", g.Name)
			}
			target = va
		}
		if err := h.as.WriteU64(gotVA+uint64(i*8), target); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.as.WriteU64(gpSlotVA, gotVA); err != nil {
		t.Fatal(err)
	}
	if err := h.as.WriteBytes(codeVA, j.Body); err != nil {
		t.Fatal(err)
	}
	region, err = h.vm.AddRegion(codeVA, j.Body[:j.TextLen], 0)
	if err != nil {
		t.Fatal(err)
	}
	return codeVA + uint64(j.Entry), region
}

func TestArithmeticProgram(t *testing.T) {
	h := newHarness(t, false)
	ld := h.loadLib(t, "arith", `
.text
.global compute
compute:
    ; r0 = (a+b)*3 - a/b
    add  r2, r0, r1
    muli r2, r2, 3
    div  r3, r0, r1
    sub  r0, r2, r3
    ret
`)
	got, _, err := h.vm.Call(ld.Exports["compute"], 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got != (20+5)*3-20/5 {
		t.Fatalf("compute = %d", got)
	}
}

func TestLoopAndBranches(t *testing.T) {
	h := newHarness(t, false)
	ld := h.loadLib(t, "loop", `
.text
.global sumto
sumto:
    movi r1, 0      ; acc
    movi r2, 1      ; i
loop:
    bgt_check:
    blt  r0, r2, done
    add  r1, r1, r2
    addi r2, r2, 1
    jmp  loop
done:
    mov  r0, r1
    ret
`)
	got, _, err := h.vm.Call(ld.Exports["sumto"], 100)
	if err != nil {
		t.Fatal(err)
	}
	if got != 5050 {
		t.Fatalf("sumto(100) = %d", got)
	}
}

func TestLoadsStoresAndStack(t *testing.T) {
	h := newHarness(t, false)
	buf, err := h.as.Alloc("buf", 64, 8, mem.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	ld := h.loadLib(t, "memops", `
.text
.global touch
touch:
    ; spill LR, call helper, restore: exercises the stack.
    addi sp, sp, -16
    st   lr, [sp+0]
    call helper
    ld   lr, [sp+0]
    addi sp, sp, 16
    ret
helper:
    movi r1, 0x1234
    sth  r1, [r0+0]
    ldh  r2, [r0+0]
    movi r1, -1
    stb  r1, [r0+2]
    ldb  r3, [r0+2]
    stw  r1, [r0+4]
    ldw  r4, [r0+4]
    st   r1, [r0+8]
    ld   r5, [r0+8]
    ; r0 = r2 + r3 + r4(low bit) + r5(low bit)
    andi r4, r4, 1
    andi r5, r5, 1
    add  r0, r2, r3
    add  r0, r0, r4
    add  r0, r0, r5
    ret
`)
	got, _, err := h.vm.Call(ld.Exports["touch"], buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0x1234+0xFF+1+1 {
		t.Fatalf("touch = %#x", got)
	}
	v, _ := h.as.ReadU16(buf)
	if v != 0x1234 {
		t.Fatalf("mem[0] = %#x", v)
	}
}

func TestCallNativeThroughGot(t *testing.T) {
	h := newHarness(t, false)
	src, _ := h.as.Alloc("src", 64, 8, mem.PermRW)
	dst, _ := h.as.Alloc("dst", 64, 8, mem.PermRW)
	if err := h.as.WriteBytes(src, []byte("function injection!")); err != nil {
		t.Fatal(err)
	}
	ld := h.loadLib(t, "copier", `
.text
.extern memcpy
.global docopy
docopy:
    ; args already in r0=dst r1=src r2=n
    addi sp, sp, -16
    st   lr, [sp+0]
    callg memcpy
    ld   lr, [sp+0]
    addi sp, sp, 16
    ret
`)
	if _, _, err := h.vm.Call(ld.Exports["docopy"], dst, src, 19); err != nil {
		t.Fatal(err)
	}
	got, _ := h.as.ReadBytes(dst, 19)
	if string(got) != "function injection!" {
		t.Fatalf("dst = %q", got)
	}
}

func TestPrintfThroughLibrary(t *testing.T) {
	h := newHarness(t, false)
	ld := h.loadLib(t, "hello", `
.text
.extern printf
.global hello
hello:
    addi sp, sp, -16
    st   lr, [sp+0]
    mov  r2, r0        ; arg value
    lea  r0, fmt
    mov  r1, r2
    callg printf
    ld   lr, [sp+0]
    addi sp, sp, 16
    ret
.rodata
fmt:
    .asciz "value=%d!\n"
`)
	if _, _, err := h.vm.Call(ld.Exports["hello"], 42); err != nil {
		t.Fatal(err)
	}
	if h.out.String() != "value=42!\n" {
		t.Fatalf("stdout = %q", h.out.String())
	}
}

const jamSumSrc = `
.text
.extern tc_sink
.global jam_sum
jam_sum:
    ; r0 = payload VA, r1 = count of u64 words
    addi sp, sp, -16
    st   lr, [sp+0]
    movi r2, 0          ; acc
    movi r3, 0          ; i
sumloop:
    bge  r3, r1, sumdone
    shli r4, r3, 3
    add  r4, r4, r0
    ld   r5, [r4+0]
    add  r2, r2, r5
    addi r3, r3, 1
    jmp  sumloop
sumdone:
    mov  r0, r2
    callg tc_sink       ; externally visible side effect
    ld   lr, [sp+0]
    addi sp, sp, 16
    ret
`

func buildSumJam(t *testing.T, h *harness) *linker.Jam {
	t.Helper()
	obj := h.assemble(t, "jam_sum.amc", jamSumSrc)
	j, err := linker.BuildJam(obj, "jam_sum")
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestInjectedJamExecution(t *testing.T) {
	// End-to-end injected-function path: jam placed at an arbitrary
	// address, GOT bound through the pointer before the code.
	h := newHarness(t, false)
	var sunk uint64
	va, err := h.vm.BindNative("tc_sink", func(env *Env, args [6]uint64) (uint64, error) {
		sunk = args[0]
		return args[0], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ns.Define("tc_sink", va); err != nil {
		t.Fatal(err)
	}

	payload, _ := h.as.Alloc("payload", 8*10, 8, mem.PermRW)
	var want uint64
	for i := 0; i < 10; i++ {
		v := uint64(i * i)
		want += v
		if err := h.as.WriteU64(payload+uint64(i*8), v); err != nil {
			t.Fatal(err)
		}
	}

	j := buildSumJam(t, h)
	entry, region := h.placeJam(t, j)
	got, _, err := h.vm.Call(entry, payload, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || sunk != want {
		t.Fatalf("jam_sum = %d (sunk %d), want %d", got, sunk, want)
	}
	h.vm.RemoveRegion(region)
	if _, _, err := h.vm.Call(entry, payload, 10); err == nil {
		t.Fatal("call into removed region succeeded")
	}
}

func TestJamAtTwoDifferentAddresses(t *testing.T) {
	// Position independence: the same jam body works wherever it lands.
	h := newHarness(t, false)
	va, _ := h.vm.BindNative("tc_sink", func(env *Env, args [6]uint64) (uint64, error) {
		return args[0], nil
	})
	if err := h.ns.Define("tc_sink", va); err != nil {
		t.Fatal(err)
	}
	payload, _ := h.as.Alloc("payload", 8*4, 8, mem.PermRW)
	for i := 0; i < 4; i++ {
		_ = h.as.WriteU64(payload+uint64(i*8), 7)
	}
	j := buildSumJam(t, h)
	e1, r1 := h.placeJam(t, j)
	e2, r2 := h.placeJam(t, j)
	if e1 == e2 {
		t.Fatal("placements collided")
	}
	g1, _, err1 := h.vm.Call(e1, payload, 4)
	g2, _, err2 := h.vm.Call(e2, payload, 4)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if g1 != 28 || g2 != 28 {
		t.Fatalf("results %d %d", g1, g2)
	}
	_ = r1
	_ = r2
}

func TestFaultDivByZero(t *testing.T) {
	h := newHarness(t, false)
	ld := h.loadLib(t, "dz", ".text\n.global f\nf:\n    movi r1, 0\n    div r0, r0, r1\n    ret\n")
	_, _, err := h.vm.Call(ld.Exports["f"], 10)
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("err = %v", err)
	}
	var f *Fault
	if !asFault(err, &f) {
		t.Fatalf("not a Fault: %T", err)
	}
}

func asFault(err error, out **Fault) bool {
	f, ok := err.(*Fault)
	if ok {
		*out = f
	}
	return ok
}

func TestFaultUnmappedJump(t *testing.T) {
	h := newHarness(t, false)
	ld := h.loadLib(t, "jmp", ".text\n.global f\nf:\n    movi r1, 0x6000\n    callr r1\n    ret\n")
	_, _, err := h.vm.Call(ld.Exports["f"])
	if err == nil || !strings.Contains(err.Error(), "unmapped") {
		t.Fatalf("err = %v", err)
	}
}

func TestFaultStoreToReadOnly(t *testing.T) {
	h := newHarness(t, false)
	ro, _ := h.as.AllocPages("ro", mem.PageSize, mem.PermR)
	ld := h.loadLib(t, "st", ".text\n.global f\nf:\n    st r1, [r0+0]\n    ret\n")
	_, _, err := h.vm.Call(ld.Exports["f"], ro)
	if err == nil || !strings.Contains(err.Error(), "fault") {
		t.Fatalf("err = %v", err)
	}
}

func TestInstrBudget(t *testing.T) {
	h := newHarness(t, false)
	ld := h.loadLib(t, "spin", ".text\n.global f\nf:\nspin:\n    jmp spin\n")
	h.vm.InstrBudget = 10000
	_, _, err := h.vm.Call(ld.Exports["f"])
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("err = %v", err)
	}
}

func TestCheckExecEnforcement(t *testing.T) {
	h := newHarness(t, false)
	// Code placed in a non-executable page must fault when CheckExec on.
	code := isa.EncodeAll([]isa.Instr{{Op: isa.MOVI, Rd: 0, Imm: 1}, {Op: isa.RET}})
	va, _ := h.as.AllocPages("nx", mem.PageSize, mem.PermRW)
	if err := h.as.WriteBytes(va, code); err != nil {
		t.Fatal(err)
	}
	if _, err := h.vm.AddRegion(va, code, 0); err != nil {
		t.Fatal(err)
	}
	h.vm.CheckExec = true
	if _, _, err := h.vm.Call(va); err == nil {
		t.Fatal("execution of non-X page succeeded with CheckExec")
	}
	// After marking the page executable it runs.
	if err := h.as.Protect(va, mem.PageSize, mem.PermRWX); err != nil {
		t.Fatal(err)
	}
	got, _, err := h.vm.Call(va)
	if err != nil || got != 1 {
		t.Fatalf("got %d, %v", got, err)
	}
}

func TestTimingAccumulates(t *testing.T) {
	h := newHarness(t, true)
	ld := h.loadLib(t, "timing", `
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
`)
	_, cost1, err := h.vm.Call(ld.Exports["f"], 10)
	if err != nil {
		t.Fatal(err)
	}
	_, cost2, err := h.vm.Call(ld.Exports["f"], 1000)
	if err != nil {
		t.Fatal(err)
	}
	if cost1 <= 0 || cost2 <= cost1 {
		t.Fatalf("costs: %v then %v", cost1, cost2)
	}
	if h.vm.Instrs == 0 {
		t.Fatal("cumulative instruction counter empty")
	}
}

func TestStashedJamCheaperThanDRAM(t *testing.T) {
	// The paper's core microarchitectural claim, at VM granularity:
	// executing a frame whose lines were stashed into LLC costs less than
	// one whose lines sit in DRAM.
	run := func(stash bool) int64 {
		h := newHarness(t, true)
		cfg := memsim.DefaultConfig()
		cfg.Stash = stash
		h.vm.Hier = memsim.New(cfg)
		va, _ := h.vm.BindNative("tc_sink", func(env *Env, args [6]uint64) (uint64, error) {
			return 0, nil
		})
		_ = h.ns.Define("tc_sink", va)
		payload, _ := h.as.Alloc("payload", 8*64, 8, mem.PermRW)
		j := buildSumJam(t, h)
		entry, _ := h.placeJam(t, j)
		// Model network arrival of frame + payload.
		h.vm.Hier.NetworkWrite(entry, len(j.Body))
		h.vm.Hier.NetworkWrite(payload, 8*64)
		_, cost, err := h.vm.Call(entry, payload, 64)
		if err != nil {
			t.Fatal(err)
		}
		return int64(cost)
	}
	stashed, dram := run(true), run(false)
	if stashed >= dram {
		t.Fatalf("stashed exec %d >= dram exec %d", stashed, dram)
	}
}

func TestMoviu64BitConstant(t *testing.T) {
	h := newHarness(t, false)
	ld := h.loadLib(t, "c64", `
.text
.global f
f:
    movi  r0, 0x11223344
    moviu r0, 0x55667788
    ret
`)
	got, _, err := h.vm.Call(ld.Exports["f"])
	if err != nil {
		t.Fatal(err)
	}
	if got != 0x5566778811223344 {
		t.Fatalf("got %#x", got)
	}
}

func TestHaltStops(t *testing.T) {
	h := newHarness(t, false)
	ld := h.loadLib(t, "h", ".text\n.global f\nf:\n    movi r0, 9\n    halt\n    movi r0, 1\n    ret\n")
	got, _, err := h.vm.Call(ld.Exports["f"])
	if err != nil || got != 9 {
		t.Fatalf("halt: %d %v", got, err)
	}
}

// TestNativeMemcmpStrlen calls each libc native that no shipped program
// calls, through one GOT trampoline each: a jam built with tcpkg may use
// any of them.
func TestNativeMemcmpStrlen(t *testing.T) {
	h := newHarness(t, false)
	a, _ := h.as.Alloc("a", 32, 8, mem.PermRW)
	b, _ := h.as.Alloc("b", 32, 8, mem.PermRW)
	_ = h.as.WriteBytes(a, append([]byte("hello"), 0))
	_ = h.as.WriteBytes(b, append([]byte("hellp"), 0))
	natives := []string{"memcmp", "strlen", "strcmp", "puts", "memset", "abort"}
	var src strings.Builder
	src.WriteString(".text\n")
	for _, n := range natives {
		fmt.Fprintf(&src, `.extern %[1]s
.global do%[1]s
do%[1]s:
    addi sp, sp, -16
    st   lr, [sp+0]
    callg %[1]s
    ld   lr, [sp+0]
    addi sp, sp, 16
    ret
`, n)
	}
	ld := h.loadLib(t, "natives", src.String())
	for _, c := range []struct {
		fn      string
		args    []uint64
		want    int64
		wantErr string
	}{
		{fn: "memcmp", args: []uint64{a, b, 5}, want: -1},
		{fn: "memcmp", args: []uint64{a, b, 4}, want: 0},
		{fn: "strlen", args: []uint64{a}, want: 5},
		{fn: "strcmp", args: []uint64{b, a}, want: 1},
		{fn: "strcmp", args: []uint64{a, a}, want: 0},
		{fn: "puts", args: []uint64{a}, want: 6},
		{fn: "memset", args: []uint64{b + 1, 'x', 3}, want: int64(b + 1)},
		{fn: "abort", wantErr: "abort() called"},
	} {
		got, _, err := h.vm.Call(ld.Exports["do"+c.fn], c.args...)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("%s%v: err %v, want %q", c.fn, c.args, err, c.wantErr)
			}
			continue
		}
		if err != nil || int64(got) != c.want {
			t.Errorf("%s%v = %d, %v; want %d", c.fn, c.args, int64(got), err, c.want)
		}
	}
	if h.out.String() != "hello\n" {
		t.Errorf("puts wrote %q", h.out.String())
	}
	if got, _ := h.as.ReadCString(b, 32); got != "hxxxp" {
		t.Errorf("memset left %q", got)
	}
}

func TestLittleEndianAgreement(t *testing.T) {
	// VM word order must match Go's binary.LittleEndian so natives and
	// interpreted code see the same values.
	h := newHarness(t, false)
	buf, _ := h.as.Alloc("le", 16, 8, mem.PermRW)
	ld := h.loadLib(t, "le", ".text\n.global f\nf:\n    st r1, [r0+0]\n    ret\n")
	if _, _, err := h.vm.Call(ld.Exports["f"], buf, 0x0102030405060708); err != nil {
		t.Fatal(err)
	}
	raw, _ := h.as.ReadBytes(buf, 8)
	if binary.LittleEndian.Uint64(raw) != 0x0102030405060708 {
		t.Fatalf("bytes % x", raw)
	}
	if raw[0] != 0x08 {
		t.Fatalf("not little endian: % x", raw)
	}
}

// TestFaultAndBudgetPins pins, for the fault and budget programs above
// and two that return, everything a call reports: result, the Fault's
// whole text (PC, instruction, cause), simulated cost and instruction
// count, with the cost model on and off and CheckExec on throughout. The
// rows were captured at commit 9dbd9d9 from the interpret loop while a
// compiled engine still ran beside it and agreed on every one; they are
// the loop's contract now.
func TestFaultAndBudgetPins(t *testing.T) {
	lib := func(name, src string, args ...uint64) func(*testing.T, *harness) (uint64, []uint64) {
		return func(t *testing.T, h *harness) (uint64, []uint64) {
			return h.loadLib(t, name, src).Exports["f"], args
		}
	}
	type outcome struct {
		ret    uint64
		fault  string
		cost   int64
		instrs uint64
	}
	cases := []struct {
		name   string
		budget uint64
		prep   func(*testing.T, *harness) (entry uint64, args []uint64)
		// untimed, timed: the outcome without and with a memsim hierarchy.
		untimed, timed outcome
	}{
		{"div-by-zero", 0, lib("dz", ".text\n.global f\nf:\n    movi r1, 0\n    div r0, r0, r1\n    ret\n", 10),
			outcome{0, "vm: fault at pc=0x21008 [div r0, r0, r1]: division by zero", 1038, 2},
			outcome{0, "vm: fault at pc=0x21008 [div r0, r0, r1]: division by zero", 91038, 2}},
		{"unmapped-jump", 0, lib("jmp", ".text\n.global f\nf:\n    movi r1, 0x6000\n    callr r1\n    ret\n"),
			outcome{0, "vm: fault at pc=0x6000: jump to unmapped code", 1038, 2},
			outcome{0, "vm: fault at pc=0x6000: jump to unmapped code", 91038, 2}},
		{"store-to-read-only", 0, func(t *testing.T, h *harness) (uint64, []uint64) {
			ro, err := h.as.AllocPages("ro", mem.PageSize, mem.PermR)
			if err != nil {
				t.Fatal(err)
			}
			return h.loadLib(t, "st", ".text\n.global f\nf:\n    st r1, [r0+0]\n    ret\n").Exports["f"], []uint64{ro}
		}, outcome{0, "vm: fault at pc=0x22000 [st r1, [r0+0]]: mem: write fault at 0x21000 (8 bytes): page is r--", 519, 1},
			outcome{0, "vm: fault at pc=0x22000 [st r1, [r0+0]]: mem: write fault at 0x21000 (8 bytes): page is r--", 90519, 1}},
		{"budget", 10000, lib("spin", ".text\n.global f\nf:\nspin:\n    jmp spin\n"),
			outcome{0, "vm: fault at pc=0x21000 [jmp 0]: instruction budget exceeded (10000)", 5192827, 10001},
			outcome{0, "vm: fault at pc=0x21000 [jmp 0]: instruction budget exceeded (10000)", 5282827, 10001}},
		{"fetch-from-non-exec-page", 0, func(t *testing.T, h *harness) (uint64, []uint64) {
			code := isa.EncodeAll([]isa.Instr{{Op: isa.MOVI, Rd: 0, Imm: 1}, {Op: isa.RET}})
			va, err := h.as.AllocPages("nx", mem.PageSize, mem.PermRW)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.as.WriteBytes(va, code); err != nil {
				t.Fatal(err)
			}
			if _, err := h.vm.AddRegion(va, code, 0); err != nil {
				t.Fatal(err)
			}
			return va, nil
		}, outcome{0, "vm: fault at pc=0x21000 [movi r0, 1]: mem: exec fault at 0x21000 (8 bytes): page is rw-", 0, 0},
			outcome{0, "vm: fault at pc=0x21000 [movi r0, 1]: mem: exec fault at 0x21000 (8 bytes): page is rw-", 0, 0}},
		{"load-past-capacity", 0, lib("ld", ".text\n.global f\nf:\n    addi r2, r2, 1\n    ld r0, [r0+8]\n    ret\n", 1<<40),
			outcome{0, "vm: fault at pc=0x21008 [ld r0, [r0+8]]: mem: read fault at 0x10000000008 (8 bytes): unmapped", 1038, 2},
			outcome{0, "vm: fault at pc=0x21008 [ld r0, [r0+8]]: mem: read fault at 0x10000000008 (8 bytes): unmapped", 91038, 2}},
		{"loop-returns", 0, lib("timing", `
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
`, 1000), outcome{499500, "", 2079519, 4005},
			outcome{499500, "", 2169519, 4005}},
		{"jam-through-message-got", 0, func(t *testing.T, h *harness) (uint64, []uint64) {
			va, err := h.vm.BindNative("tc_sink", func(env *Env, args [6]uint64) (uint64, error) {
				return args[0], nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := h.ns.Define("tc_sink", va); err != nil {
				t.Fatal(err)
			}
			payload, err := h.as.Alloc("payload", 8*10, 8, mem.PermRW)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				if err := h.as.WriteU64(payload+uint64(i*8), uint64(i*i)); err != nil {
					t.Fatal(err)
				}
			}
			entry, _ := h.placeJam(t, buildSumJam(t, h))
			return entry, []uint64{payload, 10}
		}, outcome{285, "", 49230, 80},
			outcome{285, "", 532230, 80}},
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
				if _, ok := err.(*Fault); !ok {
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
