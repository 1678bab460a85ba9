package memsim

import (
	"runtime"
	"testing"

	"twochains/internal/sim"
)

// The memory-timing layer's own benchmarks (ROADMAP aim 1: each stage of an
// injection has one). `make bench-json` records them.

var (
	sinkCost sim.Duration
	sinkHier *Hierarchy
)

// steadyState runs op until b.N, after checking that it does not allocate:
// the hierarchy sits under every timed load, store and fetch.
func steadyState(b *testing.B, op func()) {
	if n := testing.AllocsPerRun(100, op); n != 0 {
		b.Fatalf("%v allocs per op, want 0", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkAccessSameLine is the commonest access there is: the next word
// of the line touched last (a word loop, a push/pop prologue, the next
// instruction of a fetched line).
func BenchmarkAccessSameLine(b *testing.B) {
	h := New(DefaultConfig())
	var off uint64
	steadyState(b, func() {
		sinkCost += h.Access(0x10000+off, 8, Read)
		off = (off + 8) % 64
	})
}

// BenchmarkStashedRead1K is the jam_sssum shape: the NIC writes a 1 KB
// frame into one of eight mailbox slots and the handler reads its 128
// words.
func BenchmarkStashedRead1K(b *testing.B) {
	h := New(DefaultConfig())
	var slot uint64
	steadyState(b, func() {
		frame := 0x20000 + slot*1024
		slot = (slot + 1) % 8
		h.NetworkWrite(frame, 1024)
		for off := uint64(0); off < 1024; off += 8 {
			sinkCost += h.Access(frame+off, 8, Read)
		}
	})
}

// BenchmarkNetworkWriteFrame is the per-frame receive cost: the NIC lands a
// 2 KB frame and the mailbox reads its 16-byte header and the 8-byte
// trailer word. Frames rotate over a 1 MB region on each of 16 hierarchies,
// as a mesh's nodes take turns, so the tag sets a frame needs are mostly
// cold in the host's caches, as they are in a run.
func BenchmarkNetworkWriteFrame(b *testing.B) {
	const frame, region, nodes = 2048, 1 << 20, 16
	var hs [nodes]*Hierarchy
	for i := range hs {
		hs[i] = New(DefaultConfig())
	}
	var i uint64
	steadyState(b, func() {
		h := hs[i%nodes]
		va := 0x100000 + (i/nodes*frame)%region
		i++
		h.NetworkWrite(va, frame)
		sinkCost += h.Access(va, 16, Read)
		sinkCost += h.Access(va+frame-8, 8, Read)
	})
}

// BenchmarkConflictSet is the worst case for recency-ordered sets: ways+1
// lines take turns in one set at every level, so each access misses
// everywhere and shifts three full sets.
func BenchmarkConflictSet(b *testing.B) {
	cfg := DefaultConfig()
	h := New(cfg)
	stride := uint64(cfg.LLCSize / cfg.LLCWays) // bytes between lines of one LLC set, and so of one L2 and L3 set
	var i uint64
	steadyState(b, func() {
		sinkCost += h.Access(i*stride, 8, Read)
		i = (i + 1) % uint64(cfg.LLCWays+1)
	})
	if st := h.Stats(); st.LinesL2+st.LinesL3+st.LinesLLC != 0 {
		b.Fatalf("conflict set hit a cache: %+v", st)
	}
}

// BenchmarkNew is a node's share of building a system and closing it: New
// takes from the shelf the three tag arrays Release put there, so in
// steady state the pair allocates the Hierarchy, its RNG and the one-line
// stand-ins Release leaves behind, and nothing as large as an array.
func BenchmarkNew(b *testing.B) {
	cfg := DefaultConfig()
	op := func() {
		sinkHier = New(cfg)
		sinkHier.Release()
	}
	op()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / 100; per >= 1024 {
		b.Fatalf("New+Release allocates %d B per pair, want < 1 KB: the tag arrays are not coming back from the shelf", per)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkReset empties a hierarchy that holds a line: a generation bump
// per level, and every 14th time a clear of the arrays.
func BenchmarkReset(b *testing.B) {
	h := New(DefaultConfig())
	steadyState(b, func() {
		sinkCost += h.Access(0x10000, 8, Read)
		h.reset()
	})
	if lvl := h.Contains(0x10000); lvl != "DRAM" {
		b.Fatalf("a line survived Reset in %s", lvl)
	}
}
