package vm

import (
	"testing"

	"twochains/internal/mem"
	"twochains/internal/sim"
)

// The interpret loop's own benchmark (ROADMAP aim 1: each stage of an
// injection has one). It runs with timing on, the way every scenario does.

var sinkRet uint64

// sum8Src is jam_sssum's word loop. Library text starts line-aligned, so
// its six instructions (offsets 16–56) and the backward jump stay inside
// one 64-byte line: after the first pass every instruction is dispatched
// inside a run.
const sum8Src = `
.text
.global sum8
sum8:
    movi r3, 0
    mov  r4, r0
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

// BenchmarkInterpretSum is the warm receive side of jam_sssum: the NIC lands
// a 1 KB payload in the LLC and the handler sums its 128 words — one fetch
// per code line, one data access per load, both through the hierarchy.
func BenchmarkInterpretSum(b *testing.B) {
	h := newHarness(b, true)
	entry := h.loadLib(b, "sum8", sum8Src).Exports["sum8"]
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
}
