package vm

import (
	"testing"

	"twochains/internal/isa"
)

// retBody encodes a jam that returns v after pad no-ops, so bodies of any
// length and content are one call away.
func retBody(v int32, pad int) []byte {
	ins := make([]isa.Instr, 0, pad+2)
	for i := 0; i < pad; i++ {
		ins = append(ins, isa.Instr{Op: isa.NOP})
	}
	ins = append(ins, isa.Instr{Op: isa.MOVI, Rd: 0, Imm: v}, isa.Instr{Op: isa.RET})
	return isa.EncodeAll(ins)
}

// TestJamTable pins the jam tables: EnsureJam returns the cached region
// while a slot's bytes are unchanged, maps a fresh one when they change,
// shares decodes by content, keeps the slot table disjoint under shifted
// bodies, and bounds the body table, oldest replaced first.
func TestJamTable(t *testing.T) {
	h := newHarness(t, false)
	v := h.vm
	ensure := func(va uint64, code []byte) *Region {
		t.Helper()
		r, err := v.EnsureJam(va, code)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	call := func(r *Region, want uint64) {
		t.Helper()
		ret, _, err := v.CallRegion(r, r.Start)
		if err != nil || ret != want {
			t.Fatalf("call at 0x%x = %d, %v; want %d", r.Start, ret, err, want)
		}
	}
	const va = 0x4000_0040
	a, b := retBody(7, 0), retBody(9, 1)

	// tier reads EnsureJam's counters as {slot hits, slot misses, decodes}.
	tier := func() [3]uint64 { return [3]uint64{v.SlotHits, v.SlotMisses, v.Decodes} }

	// First delivery: a miss that decodes and maps.
	r := ensure(va, a)
	call(r, 7)
	if want := [3]uint64{0, 1, 1}; tier() != want {
		t.Fatalf("after first delivery: %v, want %v", tier(), want)
	}

	// Hits keep the region.
	for i := 1; i <= 6; i++ {
		if got := ensure(va, a); got != r {
			t.Fatalf("hit %d remapped the slot", i)
		}
		call(r, 7)
	}
	if want := [3]uint64{6, 1, 1}; tier() != want {
		t.Fatalf("after six hits: %v, want %v", tier(), want)
	}

	// A content change at the same VA is a fresh region; the old one is
	// unreachable.
	rb := ensure(va, b)
	if rb == r || v.findRegion(va) != rb {
		t.Fatalf("content change: same region %v, mapped %v", rb == r, v.findRegion(va) == rb)
	}
	call(rb, 9)
	if want := [3]uint64{6, 2, 2}; tier() != want {
		t.Fatalf("after content change: %v, want %v", tier(), want)
	}

	// The same body at a new VA shares the decoded instructions.
	rc := ensure(va+0x1000, a)
	if v.Decodes != 2 || &rc.instrs[0] != &r.instrs[0] {
		t.Fatalf("body seen before was decoded again (decodes = %d)", v.Decodes)
	}
	call(rc, 7)

	// Shifted bodies inside one frame slot: a shorter element 8 bytes up
	// evicts b at va, and a longer one 8 bytes down evicts that in turn.
	rs := ensure(va+8, a)
	if v.findRegion(va) != nil || v.findRegion(va+8) != rs || len(v.jams) != 2 {
		t.Fatalf("shifted shorter body: va mapped %v, %d slots", v.findRegion(va) != nil, len(v.jams))
	}
	rl := ensure(va-8, retBody(11, 4))
	if v.findRegion(va+8) != rl || len(v.jams) != 2 {
		t.Fatalf("shifted longer body left a stale overlap (%d slots)", len(v.jams))
	}
	call(rl, 11)
	// One long body swallows several neighbours at once.
	ensure(va+0x2000, a)
	ensure(va+0x2000+uint64(len(a)), a)
	ensure(va+0x2000+2*uint64(len(a)), a)
	ensure(va+0x2000+8, retBody(13, 8))
	if len(v.jams) != 3 {
		t.Fatalf("spanning body: %d slots, want 3", len(v.jams))
	}
	for i := 1; i < len(v.jams); i++ {
		if v.jams[i-1].region.End > v.jams[i].region.Start {
			t.Fatalf("slots %d and %d overlap", i-1, i)
		}
	}

	// RemoveRegion unmaps a jam like any region.
	v.RemoveRegion(rc)
	if v.findRegion(rc.Start) != nil || len(v.jams) != 2 {
		t.Fatal("RemoveRegion left the jam mapped")
	}

	// A flood of distinct bodies through one slot leaves the body table at
	// its bound and the slot table where it was.
	for i := 0; i < 3*jamBodyCap; i++ {
		ensure(va+0x3000, retBody(int32(100+i), i%5))
	}
	if len(v.bodies) != jamBodyCap || len(v.jams) != 3 {
		t.Fatalf("after flood: %d bodies (bound %d), %d slots", len(v.bodies), jamBodyCap, len(v.jams))
	}
	// The oldest bodies are the ones gone: a decodes again, the newest hits.
	d := v.Decodes
	ensure(va+0x4000, retBody(int32(100+3*jamBodyCap-1), (3*jamBodyCap-1)%5))
	ensure(va+0x5000, a)
	if v.Decodes != d+1 {
		t.Fatalf("body table is not oldest-first: %d decodes, want %d", v.Decodes, d+1)
	}
}
