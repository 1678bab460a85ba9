package memsim

import (
	"math/rand"
	"slices"
	"testing"
)

// The reuse invariant: a hierarchy built on recycled tag arrays behaves,
// cost for cost, counter for counter and line for line, like one whose
// arrays came zeroed from the allocator — no tag of a previous occupant is
// observable. The tests below make the previous occupant as loud as the
// representation allows: every array that goes on the shelf here is filled,
// every word of it, with the most misleading values one can hold.
//
// What it can hold is bounded, and the bound is the whole argument. A word
// of an array whose cache stands at floor F was written under a floor <= F
// (floors only grow, per array), so it is at most F+genStep, the tag of
// line lineMask — which is exactly the floor the next occupant gets, hence
// free. Words above that are not part of the poison because nothing can
// have written them: ^uint32(0) in particular would need a floor above
// maxFloor, and maxFloor+genStep is 2^32-2^28.

// poisoned holds the arrays poisonShelf released, for newWatched.
var poisoned = map[*uint32]bool{}

// poisonShelf releases, for each level of cfg, a cache standing at a
// generation of the caller's choice and filled as a hostile previous
// occupant would leave it: every line the next program touches, tagged
// valid under that generation and sitting in the very set it will be looked
// up in, and every other word equal to the floor the next occupant starts
// at. All three are drawn before any goes back on top of the shelf, so the
// next New draws three poisoned arrays even where two levels are the same
// size.
func poisonShelf(cfg Config, lines map[uint64]bool, floor uint32) {
	var caches []*cache
	for _, g := range [][2]int{{cfg.L2Size, cfg.L2Ways}, {cfg.L3Size, cfg.L3Ways}, {cfg.LLCSize, cfg.LLCWays}} {
		caches = append(caches, newCache(g[0], g[1], cfg.LineSize))
	}
	for _, c := range caches {
		c.floor = floor
		for i := range c.tags {
			c.tags[i] = floor + genStep
		}
		for line := range lines {
			// In whatever way of its set: stale words keep no order.
			line &= lineMask
			s := c.set(line)
			s[int(line>>3)%len(s)] = floor + 1 + uint32(line)
		}
		poisoned[&c.tags[0]] = true
		tagShelf.Put(c, len(c.tags))
	}
}

// poisonDrawn counts the poisoned arrays New handed to a hierarchy under
// test, each once.
var poisonDrawn int

func newWatched(cfg Config) *Hierarchy {
	h := New(cfg)
	for _, a := range tagArrays(h) {
		if poisoned[a] {
			delete(poisoned, a)
			poisonDrawn++
		}
	}
	return h
}

func TestPoisonedPoolDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 300; i++ {
		program := randomProgram(rng)
		// The first pass is an ordinary differential run; it says which
		// geometry and lines the program uses.
		cfg, lines := diffOn(t, program, New)
		// Any generation, and often the two next to the wrap: the last one
		// (the draw clears) and the one before (the draw lands on the last).
		floor := uint32(1+rng.Intn(maxFloor/genStep)) * genStep
		if i%4 == 0 {
			floor = maxFloor - uint32(i/4%2)*genStep
		}
		poisonShelf(cfg, lines, floor)
		before := poisonDrawn
		diffOn(t, program, newWatched)
		if n := poisonDrawn - before; n != 3 || len(poisoned) != 0 {
			t.Fatalf("program %d ran on %d poisoned arrays, want all 3", i, n)
		}
	}
}

// TestGenerationWrap walks a hierarchy over the end of its generations on
// the same arrays: the recycle that lands on the last generation clears
// nothing, the next one clears once and restarts at the first, and the
// model agrees with the reference throughout — including on line lineMask,
// whose tag in the last generation is the largest word there is.
func TestGenerationWrap(t *testing.T) {
	// Three tag counts (6, 10, 24), so the shelf hands back what this test
	// released, level for level.
	cfg := Config{L2Size: 2 * 3 * 64, L2Ways: 3, L3Size: 2 * 5 * 64, L3Ways: 5, LLCSize: 4 * 6 * 64, LLCWays: 6, LineSize: 64, Stash: true}
	got, want := New(cfg), newRefHierarchy(cfg)
	defer func() { got.Release() }()
	caches := func() [3]*cache { return [3]*cache{got.l2, got.l3, got.llc} }
	for _, c := range caches() {
		c.floor = maxFloor - genStep // raising a floor is always sound
	}
	ls := uint64(cfg.LineSize)
	top := uint64(lineMask) * ls // the last line of the model's address width
	step := func(when string) {
		t.Helper()
		for _, a := range []uint64{diffBase, diffBase + ls, top, diffBase + 2*ls, top, diffBase} {
			if g, w := got.Access(a, 8, Read), want.AccessSeq(a, 8, Read, false); g != w {
				t.Fatalf("%s: Access(0x%x) cost %v, reference %v", when, a, g, w)
			}
		}
		got.NetworkWrite(top, 8)
		want.NetworkWrite(top, 8)
		for _, a := range []uint64{diffBase, diffBase + ls, diffBase + 2*ls, top, 0} {
			if g, w := got.Contains(a), want.Contains(a); g != w {
				t.Fatalf("%s: line 0x%x is in %s, reference says %s", when, a/ls, g, w)
			}
		}
		if g, w := got.Stats(), want.stats; g != w {
			t.Fatalf("%s: stats diverged:\n got %+v\nwant %+v", when, g, w)
		}
	}
	recycle := func() {
		t.Helper()
		old := tagArrays(got)
		got.Release()
		got, want = New(cfg), newRefHierarchy(cfg)
		if tagArrays(got) != old {
			t.Fatal("New did not take back the arrays the hierarchy just released")
		}
	}
	stale := func(c *cache) (n int) {
		for _, w := range c.tags {
			if w != 0 && w <= c.floor {
				n++
			}
		}
		return n
	}

	step("two generations before the wrap")
	recycle()
	for _, c := range caches() {
		if c.floor != maxFloor {
			t.Fatalf("floor 0x%x after the first recycle, want the last generation 0x%x", c.floor, uint64(maxFloor))
		}
	}
	if stale(got.llc) == 0 {
		t.Fatal("the recycle onto the last generation cleared the array")
	}
	step("in the last generation")
	if tag := got.llc.tags[int(lineMask&got.llc.setMask)*got.llc.ways]; tag != maxFloor+genStep {
		t.Fatalf("line lineMask is tagged 0x%x in the last generation, want 0x%x", tag, uint64(maxFloor+genStep))
	}
	recycle()
	for _, c := range caches() {
		if c.floor != genStep {
			t.Fatalf("floor 0x%x after the wrap, want the first generation 0x%x", c.floor, uint64(genStep))
		}
		if slices.ContainsFunc(c.tags, func(w uint32) bool { return w != 0 }) {
			t.Fatal("the wrap did not clear the array: an old tag could pass for a new one")
		}
	}
	step("after the wrap")
}

// TestReleasedHierarchy: after Release no entry point panics or reaches the
// arrays the shelf now holds, the counters are kept, and a second Release is
// harmless — it hands back the one-line stand-ins, not the arrays again.
func TestReleasedHierarchy(t *testing.T) {
	cfg := diffGeometries[4]
	h := New(cfg)
	h.Access(diffBase, 512, Read)
	h.NetworkWrite(diffBase+4096, 1024)
	given := [3]*cache{h.l2, h.l3, h.llc}
	var snapshot [3][]uint32
	for i, c := range given {
		snapshot[i] = slices.Clone(c.tags)
	}
	stats := h.Stats()

	h.Release()
	h.Release()
	if h.Stats() != stats {
		t.Errorf("Release changed the counters: %+v, were %+v", h.Stats(), stats)
	}
	for i, c := range [3]*cache{h.l2, h.l3, h.llc} {
		if slices.Contains(given[:], c) || len(c.tags) != 1 {
			t.Fatalf("level %d holds %d tags after Release, want a one-line cache of its own", i, len(c.tags))
		}
	}

	h.SetStress(true)
	h.Access(diffBase, 8, Read)
	h.Access(diffBase, 8, Read) // the MRU line of its L2 set
	h.AccessSeq(diffBase+60, 700, Fetch, true)
	h.Access(diffBase, 4096, Write)
	h.NetworkWrite(diffBase, 2048)
	h.WarmLines(diffBase, 2048)
	h.Contains(diffBase)
	h.Reset()
	h.Access(diffBase, 8, Read)
	if lvl := h.Contains(diffBase); lvl != "L2" {
		t.Errorf("the stand-in model lost the line it just loaded: in %s", lvl)
	}
	for i, c := range given {
		if !slices.Equal(c.tags, snapshot[i]) {
			t.Fatalf("an access after Release wrote to the level-%d array the shelf holds", i)
		}
	}
}

// TestRecycledLinesReadAbsent is the invariant in its plainest form: fill a
// hierarchy, release it, and the next occupant of the same arrays finds
// every one of those lines in DRAM, at DRAM cost.
func TestRecycledLinesReadAbsent(t *testing.T) {
	cfg := testConfig(true, false)
	const lines = 4096
	first := New(cfg)
	first.WarmLines(diffBase, lines*cfg.LineSize)
	old := tagArrays(first)
	first.Release()

	h := New(cfg)
	// Last in, first out: the L3 array went on the shelf after the
	// equal-sized L2 one, so the two come back swapped.
	if now := tagArrays(h); now != [3]*uint32{old[1], old[0], old[2]} {
		t.Fatal("New did not take back the arrays the hierarchy just released")
	}
	if n := h.l2.occupancy() + h.l3.occupancy() + h.llc.occupancy(); n != 0 {
		t.Fatalf("%d valid tags in a hierarchy nobody has accessed", n)
	}
	cold := New(cfg).Access(diffBase, 8, Read) // what a hierarchy on fresh arrays charges
	for i := uint64(0); i < lines; i++ {
		a := diffBase + i*uint64(cfg.LineSize)
		if lvl := h.Contains(a); lvl != "DRAM" {
			t.Fatalf("line %d is in %s: a previous occupant's tag", i, lvl)
		}
		if c := h.Access(a, 8, Read); c != cold {
			t.Fatalf("line %d cost %v, a cold load costs %v", i, c, cold)
		}
	}
}

// TestSameClassGeometriesKeepTheirArrays: two geometries whose levels have
// different tag counts in the same size classes (6 and 5, 10 and 12, 24 and
// 20), built and released in turn, each take back their own arrays: a
// draw that finds only the other geometry's lengths leaves them shelved.
func TestSameClassGeometriesKeepTheirArrays(t *testing.T) {
	a := Config{L2Size: 2 * 3 * 64, L2Ways: 3, L3Size: 2 * 5 * 64, L3Ways: 5, LLCSize: 4 * 6 * 64, LLCWays: 6, LineSize: 64}
	b := Config{L2Size: 1 * 5 * 64, L2Ways: 5, L3Size: 2 * 6 * 64, L3Ways: 6, LLCSize: 4 * 5 * 64, LLCWays: 5, LineSize: 64}
	own := map[*Config][3]*uint32{}
	for round := 0; round < 3; round++ {
		for _, cfg := range []*Config{&a, &b} {
			h := New(*cfg)
			arrays := tagArrays(h)
			if was, ok := own[cfg]; ok && arrays != was {
				t.Fatalf("round %d: the %d/%d/%d-tag geometry did not take back its own arrays",
					round, len(h.l2.tags), len(h.l3.tags), len(h.llc.tags))
			}
			own[cfg] = arrays
			h.Access(diffBase, 4096, Write)
			h.Release()
		}
	}
}

// TestAccessWrapsAtTopOfAddressWidth: a multi-line access that runs off the
// last line the model numbers continues at line 0 and terminates, as does
// one whose end address overflows a word.
func TestAccessWrapsAtTopOfAddressWidth(t *testing.T) {
	h := New(diffGeometries[1])
	defer h.Release()
	top := uint64(lineMask+1) << h.lineShift
	h.Access(top-8, 16, Read)
	h.NetworkWrite(^uint64(0)-3, 8)
	h.WarmLines(top-1, 2)
	if st := h.Stats(); st.LinesDRAM != 2 || st.NetStashed+st.NetToDRAM != 2 {
		t.Fatalf("wrapping accesses touched %+v, want two lines each", st)
	}
	if a, b := h.Contains(top-8), h.Contains(0); a != "L2" || b != "L2" {
		t.Fatalf("lines either side of the wrap are in %s and %s, want L2", a, b)
	}
}
