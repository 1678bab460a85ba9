package vm

import (
	"testing"

	"twochains/internal/mem"
	"twochains/internal/sim"
)

// The interpret loop's own benchmark (ROADMAP aim 1: each stage of an
// injection has one). It runs with timing on, the way every scenario does.

var sinkRet uint64

// sum8Src is jam_sssum's word loop after the given prologue, which must
// set the accumulator r3 and the cursor r4; r1 is the end address.
// Library text starts line-aligned and every instruction is 8 bytes, so
// the prologue's length decides whether the loop's six instructions
// share one 64-byte line.
func sum8Src(prologue string) string {
	return `
.text
.global sum8
sum8:
` + prologue + `
w8:
    addi r6, r4, 8
    bltu r1, r6, done
    ld   r7, [r4+0]
    add  r3, r3, r7
    mov  r4, r6
    jmp  w8
done:
    mov  r0, r3
    ret
`
}

// BenchmarkInterpretSum is the warm receive side of jam_sssum: the NIC lands
// a 1 KB payload in the LLC and the handler sums its 128 words — one fetch
// per code line, one data access per load, both through the hierarchy.
// It runs the loop in two layouts. In one-line (the injected frame's
// layout), a two-instruction prologue puts the loop at offsets 16–56,
// inside one line, so after the first pass every instruction is
// dispatched inside a run. In crossing (jam_sssum called as a Local
// Function from library text), its three-instruction prologue puts the
// jmp at offset 64, so every word leaves the loop's line and re-enters
// it.
func BenchmarkInterpretSum(b *testing.B) {
	const twoInstrs = "    movi r3, 0\n    mov  r4, r0"
	for _, layout := range []struct{ name, prologue string }{
		{"one-line", twoInstrs},
		{"crossing", twoInstrs + "\n    add  r5, r0, r1"},
	} {
		layout := layout
		b.Run(layout.name, func(b *testing.B) {
			h := newHarness(b, true)
			entry := h.loadLib(b, "sum8", sum8Src(layout.prologue)).Exports["sum8"]
			payload, err := h.as.Alloc("payload", 1024, 64, mem.PermRW)
			if err != nil {
				b.Fatal(err)
			}
			var cost sim.Duration
			call := func() {
				h.vm.Hier.NetworkWrite(payload, 1024)
				var err error
				sinkRet, cost, err = h.vm.Call(entry, payload, payload+1024)
				if err != nil {
					b.Fatal(err)
				}
			}
			if n := testing.AllocsPerRun(100, call); n != 0 {
				b.Fatalf("%v allocs per call, want 0", n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				call()
			}
			b.ReportMetric(float64(cost), "simps/call")
		})
	}
}

// kvScanSrc is shaped like jam_kv_scan: the table bases come through the
// module GOT on every use, so each slot costs a GOT load and a key load,
// and an occupied one a second GOT load and a value load.
const kvScanSrc = `
.bss
.global kv_keys
kv_keys:
    .space 131072
.global kv_vals
kv_vals:
    .space 131072
.text
.global kv_scan
kv_scan:
    ; r0=start r1=count: sum the values of occupied slots in a wrapping
    ; window of (count & 127) + 1 slots from start & 16383
    andi r0, r0, 16383
    andi r1, r1, 127
    addi r1, r1, 1
    movi r3, 0
    movi r9, 0
loop:
    beq  r1, r9, done
    ldg  r4, kv_keys
    shli r5, r0, 3
    add  r6, r4, r5
    ld   r7, [r6+0]
    beq  r7, r9, next
    ldg  r4, kv_vals
    add  r6, r4, r5
    ld   r7, [r6+0]
    add  r3, r3, r7
next:
    addi r0, r0, 1
    andi r0, r0, 16383
    addi r1, r1, -1
    jmp  loop
done:
    mov  r0, r3
    ret
`

// BenchmarkInterpretKVScan is the warm data side of jam_kv_scan: 128-slot
// windows walking a half-full 16384-slot table, with timing on — the loads,
// GOT loads and fetches that mostly hit the MRU line of their L2 set.
func BenchmarkInterpretKVScan(b *testing.B) {
	h := newHarness(b, true)
	ld := h.loadLib(b, "kvscan", kvScanSrc)
	keys, vals := ld.Exports["kv_keys"], ld.Exports["kv_vals"]
	for i := uint64(0); i < 16384; i += 2 {
		if err := h.as.WriteU64(keys+i*8, i+1); err != nil {
			b.Fatal(err)
		}
		if err := h.as.WriteU64(vals+i*8, 3*i); err != nil {
			b.Fatal(err)
		}
	}
	entry := ld.Exports["kv_scan"]
	var start uint64
	var cost sim.Duration
	call := func() {
		var err error
		sinkRet, cost, err = h.vm.Call(entry, start, 127)
		if err != nil {
			b.Fatal(err)
		}
		start += 128
	}
	if n := testing.AllocsPerRun(100, call); n != 0 {
		b.Fatalf("%v allocs per call, want 0", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call()
	}
	b.ReportMetric(float64(cost), "simps/call")
}
