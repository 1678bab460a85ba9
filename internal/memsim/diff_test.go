package memsim

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"twochains/internal/model"
	"twochains/internal/sim"
)

// The reference model: the stamp-LRU tag array and the three-level walk
// this package shipped through PR 15, kept verbatim (stamps widened to
// uint64 so they cannot wrap) as the oracle every cheaper representation
// is compared against. streamCost is a pure cost table and is shared.

type refCache struct {
	sets, ways int
	tags       []uint64 // line address + 1 (0 = invalid)
	lru        []uint64 // per-entry last-use stamps
	stamp      uint64
}

func newRefCache(sizeBytes, ways, lineSize int) *refCache {
	sets := sizeBytes / lineSize / ways
	if sets < 1 {
		sets = 1
	}
	return &refCache{sets: sets, ways: ways, tags: make([]uint64, sets*ways), lru: make([]uint64, sets*ways)}
}

func (c *refCache) base(line uint64) int { return int(line%uint64(c.sets)) * c.ways }

func (c *refCache) lookup(line uint64) bool {
	base := c.base(line)
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == line+1 {
			c.stamp++
			c.lru[base+w] = c.stamp
			return true
		}
	}
	return false
}

func (c *refCache) insert(line uint64) {
	base := c.base(line)
	c.stamp++
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == line+1 {
			c.lru[base+w] = c.stamp
			return
		}
	}
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == 0 {
			c.tags[base+w] = line + 1
			c.lru[base+w] = c.stamp
			return
		}
	}
	victim := 0
	for w := 1; w < c.ways; w++ {
		if c.lru[base+w] < c.lru[base+victim] {
			victim = w
		}
	}
	c.tags[base+victim] = line + 1
	c.lru[base+victim] = c.stamp
}

func (c *refCache) invalidate(line uint64) {
	base := c.base(line)
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == line+1 {
			c.tags[base+w] = 0
			return
		}
	}
}

func (c *refCache) peek(line uint64) bool {
	base := c.base(line)
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == line+1 {
			return true
		}
	}
	return false
}

func (c *refCache) reset() {
	for i := range c.tags {
		c.tags[i], c.lru[i] = 0, 0
	}
	c.stamp = 0
}

type refHierarchy struct {
	cfg         Config
	l2, l3, llc *refCache
	streams     [model.PrefetchStreams]stream
	useCtr      uint64
	rng         *sim.RNG
	stress      bool
	stats       Stats
}

func newRefHierarchy(cfg Config) *refHierarchy {
	return &refHierarchy{
		cfg: cfg,
		l2:  newRefCache(cfg.L2Size, cfg.L2Ways, cfg.LineSize),
		l3:  newRefCache(cfg.L3Size, cfg.L3Ways, cfg.LineSize),
		llc: newRefCache(cfg.LLCSize, cfg.LLCWays, cfg.LineSize),
		rng: sim.NewRNG(cfg.Seed ^ 0x6d656d73696d),
	}
}

// line masks like Hierarchy.line, and next steps past the last line to line
// 0: the model's address width is the one thing the reference takes from
// the package.
func (h *refHierarchy) line(addr uint64) uint64 { return addr / uint64(h.cfg.LineSize) & lineMask }

func next(line uint64) uint64 { return (line + 1) & lineMask }

func (h *refHierarchy) trainPrefetch(line uint64) bool {
	if !h.cfg.Prefetch {
		return false
	}
	h.useCtr++
	for i := range h.streams {
		s := &h.streams[i]
		if s.nextLine == line && s.hits > 0 {
			s.hits++
			s.nextLine = line + 1
			s.lastUse = h.useCtr
			return s.hits > model.PrefetchTrainMisses
		}
	}
	victim := 0
	for i := range h.streams {
		if h.streams[i].lastUse < h.streams[victim].lastUse {
			victim = i
		}
	}
	h.streams[victim] = stream{nextLine: line + 1, hits: 1, lastUse: h.useCtr}
	return false
}

func (h *refHierarchy) fill(line uint64) {
	h.l2.insert(line)
	h.l3.insert(line)
	h.llc.insert(line)
}

func (h *refHierarchy) AccessSeq(addr uint64, size int, k Kind, seq bool) sim.Duration {
	if size <= 0 {
		return 0
	}
	h.stats.Accesses++
	first := h.line(addr)
	last := h.line(addr + uint64(size) - 1)
	var cost sim.Duration
	for line := first; ; line = next(line) {
		cost += h.accessLine(line, line == first && !seq, k)
		if line == last {
			break
		}
	}
	return cost
}

func (h *refHierarchy) accessLine(line uint64, lead bool, k Kind) sim.Duration {
	switch {
	case h.l2.lookup(line):
		h.stats.LinesL2++
		if lead {
			return model.L2HitLat
		}
		return streamCost(k, false, false, false, false)
	case h.l3.lookup(line):
		h.stats.LinesL3++
		h.l2.insert(line)
		if lead {
			return model.L3HitLat
		}
		return streamCost(k, true, false, false, false)
	case h.llc.lookup(line):
		if h.stress && h.rng.Bernoulli(model.StressLLCEvictProb) {
			h.llc.invalidate(line)
			h.stats.StressEvict++
			return h.dramLine(line, false, k)
		}
		h.stats.LinesLLC++
		h.fill(line)
		var extra sim.Duration
		if h.stress {
			extra = sim.FromNanos(model.StressLLCExtraNs)
		}
		if lead {
			return model.LLCHitLat + extra
		}
		return streamCost(k, false, true, false, false) + extra
	default:
		return h.dramLine(line, lead, k)
	}
}

func (h *refHierarchy) dramLine(line uint64, lead bool, k Kind) sim.Duration {
	prefetched := k != Fetch && h.trainPrefetch(line)
	h.fill(line)
	var cost sim.Duration
	switch {
	case prefetched:
		h.stats.LinesPref++
		cost = streamCost(k, false, false, false, true)
		if lead {
			cost = model.PrefillLat + sim.FromNanos(4)
		}
	case lead:
		h.stats.LinesDRAM++
		cost = model.DRAMLat
	default:
		h.stats.LinesDRAM++
		cost = streamCost(k, false, false, true, false)
	}
	if h.stress {
		cost += h.stressDelay(lead)
	}
	return cost
}

func (h *refHierarchy) stressDelay(lead bool) sim.Duration {
	q := h.rng.LogNormal(math.Log(model.StressDRAMQueueMeanNs), model.StressDRAMQueueSigma)
	if !lead {
		q *= 0.18
	}
	d := sim.FromNanos(q)
	if lead && h.rng.Bernoulli(model.StressSpikeProb) {
		spike := h.rng.Pareto(model.StressSpikeXmNs, model.StressSpikeAlpha)
		if spike > model.StressSpikeCapNs {
			spike = model.StressSpikeCapNs
		}
		d += sim.FromNanos(spike)
	}
	return d
}

func (h *refHierarchy) NetworkWrite(addr uint64, size int) {
	if size <= 0 {
		return
	}
	first := h.line(addr)
	last := h.line(addr + uint64(size) - 1)
	for line := first; ; line = next(line) {
		h.l2.invalidate(line)
		h.l3.invalidate(line)
		if h.cfg.Stash {
			h.llc.insert(line)
			h.stats.NetStashed++
		} else {
			h.llc.invalidate(line)
			h.stats.NetToDRAM++
		}
		if line == last {
			break
		}
	}
}

func (h *refHierarchy) WarmLines(addr uint64, size int) {
	if size <= 0 {
		return
	}
	first := h.line(addr)
	last := h.line(addr + uint64(size) - 1)
	for line := first; ; line = next(line) {
		h.fill(line)
		if line == last {
			break
		}
	}
}

func (h *refHierarchy) Contains(addr uint64) string {
	line := h.line(addr)
	switch {
	case h.l2.peek(line):
		return "L2"
	case h.l3.peek(line):
		return "L3"
	case h.llc.peek(line):
		return "LLC"
	}
	return "DRAM"
}

func (h *refHierarchy) Reset() {
	h.l2.reset()
	h.l3.reset()
	h.llc.reset()
	h.streams = [model.PrefetchStreams]stream{}
	h.useCtr = 0
	h.stats = Stats{}
}

// prog doles out the driver's decisions from a byte string; an exhausted
// program reads as zeroes.
type prog struct {
	b []byte
	i int
}

func (p *prog) done() bool { return p.i >= len(p.b) }

func (p *prog) u8() int {
	if p.done() {
		return 0
	}
	v := p.b[p.i]
	p.i++
	return int(v)
}

func (p *prog) u16() int { return p.u8()<<8 | p.u8() }

// diffGeometries are the shapes the differential runs on: the paper
// testbed, and four small ones where a handful of lines already conflict —
// two-way sets, direct-mapped L2, an L3 smaller than the L2 above it (so
// the levels are not inclusive), and a 128-byte line.
var diffGeometries = []Config{
	DefaultConfig(),
	{L2Size: 2 * 2 * 64, L2Ways: 2, L3Size: 2 * 2 * 64, L3Ways: 2, LLCSize: 4 * 4 * 64, LLCWays: 4, LineSize: 64},
	{L2Size: 4 * 1 * 32, L2Ways: 1, L3Size: 2 * 4 * 32, L3Ways: 4, LLCSize: 8 * 2 * 32, LLCWays: 2, LineSize: 32},
	{L2Size: 1 * 8 * 64, L2Ways: 8, L3Size: 1 * 4 * 64, L3Ways: 4, LLCSize: 2 * 16 * 64, LLCWays: 16, LineSize: 64},
	{L2Size: 16 * 4 * 128, L2Ways: 4, L3Size: 32 * 8 * 128, L3Ways: 8, LLCSize: 64 * 16 * 128, LLCWays: 16, LineSize: 128},
}

const diffBase = 0x40000

// diffHighBits are OR-ed onto working-set addresses: bits no address space
// here can produce, set so that lines differing only up there meet in one
// set at every level.
var diffHighBits = [4]uint64{1 << 46, 1 << 52, 1 << 63, 1<<63 | 1<<46}

// tagArrays identifies the three tag arrays h holds.
func tagArrays(h *Hierarchy) [3]*uint32 {
	return [3]*uint32{&h.l2.tags[0], &h.l3.tags[0], &h.llc.tags[0]}
}

// recycledArrays counts the tag arrays a recycle op got back from the shelf:
// the hierarchy built after a Release holding an array the released one held.
var recycledArrays int

// hierarchyDiff drives one op sequence against a Hierarchy and against the
// reference model and fails on the first difference in any returned cost,
// any Stats field, or the level holding any line the program touched.
// Flag bit 3 turns every access op into a "Hit, else Access" op, the way
// the interpreter charges loads, stores and fetches: Hit first, priced at
// L2HitLat (model.Cycles(1) for a sequential access) when it answers, and
// Access or AccessSeq only when it does not.
func hierarchyDiff(t *testing.T, program []byte) { diffOn(t, program, New) }

// diffOn is hierarchyDiff with the constructor of the hierarchy under test
// supplied (recycle_test.go watches what New draws from a poisoned shelf).
// It returns the geometry the program chose and the lines it touched.
func diffOn(t *testing.T, program []byte, build func(Config) *Hierarchy) (Config, map[uint64]bool) {
	p := &prog{b: program}
	cfg := diffGeometries[p.u8()%len(diffGeometries)]
	flags := p.u8()
	cfg.Stash, cfg.Prefetch, cfg.Seed = flags&1 != 0, flags&2 != 0, uint64(p.u8())
	hitFirst := flags&8 != 0
	got, want := build(cfg), newRefHierarchy(cfg)
	// Every program leaves its arrays, as it dirtied them, to the next.
	defer func() { got.Release() }()
	if flags&4 != 0 {
		got.SetStress(true)
		want.stress = true
	}

	ls := uint64(cfg.LineSize)
	// One stride maps to the same set at every level: all set counts are
	// powers of two, so the LLC's (the largest) is a multiple of the others.
	sameSet := uint64(cfg.LLCSize / cfg.LLCWays)
	var prev, cursor uint64 = diffBase, 0
	touched := map[uint64]bool{}

	addr := func() uint64 {
		switch sel := p.u8(); {
		case sel < 64: // the address used last: the line L2 touched last, often
		case sel < 128: // a working set of a few dozen lines
			prev = diffBase + uint64(p.u8()%48)*ls + uint64(p.u8())%ls
		case sel < 192: // lines that fight for one set
			prev = diffBase + uint64(p.u8()%40)*sameSet + uint64(p.u8()%2)*ls
		case sel < 224: // a forward stream, which trains the prefetcher
			cursor++
			prev = 0x4000000 + cursor*ls
		case sel < 236:
			prev = diffBase + uint64(p.u16())*8
		case sel < 240: // the last 2 KB the model numbers: line lineMask and below
			prev = (lineMask+1)*ls - 8 - uint64(p.u8())*8
		default: // a working-set line again, under address bits 46 and up
			hi := p.u8()
			prev = diffHighBits[hi>>6] | (diffBase + uint64(hi%48)*ls + uint64(p.u8())%ls)
		}
		return prev
	}
	// size picks a word, a word straddling two lines (moving a to the end
	// of its line), a few lines, or up to 4 KB — 0 included.
	size := func(a *uint64) int {
		switch sel := p.u8(); {
		case sel < 128:
			return 1 << (sel % 4)
		case sel < 160:
			*a = (*a/ls+1)*ls - uint64(1+sel%7)
			return 8
		case sel < 224:
			return p.u8()%(6*cfg.LineSize) + 1
		default:
			return p.u16() % 4096
		}
	}
	touch := func(a uint64, n int) {
		if n <= 0 {
			return
		}
		for line := a / ls; line <= (a+uint64(n)-1)/ls && len(touched) < 1<<16; line++ {
			touched[line] = true
		}
	}
	checkLines := func(op int) {
		for line := range touched {
			if g, w := got.Contains(line*ls), want.Contains(line*ls); g != w {
				t.Fatalf("op %d: line 0x%x is in %s, reference says %s", op, line, g, w)
			}
		}
	}
	access := func(op int, a uint64, n int, k Kind, seq bool) {
		touch(a, n)
		var g sim.Duration
		switch {
		case hitFirst && got.Hit(a, n):
			g = model.L2HitLat
			if seq {
				g = model.Cycles(1)
			}
		case seq:
			g = got.AccessSeq(a, n, k, true)
		default:
			g = got.Access(a, n, k)
		}
		if w := want.AccessSeq(a, n, k, seq); g != w {
			t.Fatalf("op %d: Access(0x%x, %d, kind %d, seq %v) cost %v, reference %v", op, a, n, k, seq, g, w)
		}
	}

	for op := 0; !p.done() && op < 600; op++ {
		switch sel := p.u8() % 16; sel {
		case 0, 1, 2, 3, 4, 5:
			a := addr()
			n := size(&a)
			access(op, a, n, Kind(p.u8()%3), sel&1 != 0)
		case 6, 7:
			// A word loop over one line: the shape of a jam's payload scan.
			a, k := addr()/ls*ls, Kind(p.u8()%3)
			for w := uint64(0); w < ls; w += 8 {
				access(op, a+w, 8, k, sel&1 != 0 && w > 0)
			}
		case 8, 9, 10:
			a := addr()
			n := size(&a)
			touch(a, n)
			got.NetworkWrite(a, n)
			want.NetworkWrite(a, n)
		case 11:
			a := addr()
			n := size(&a)
			touch(a, n)
			got.WarmLines(a, n)
			want.WarmLines(a, n)
		case 12:
			on := p.u8()&1 != 0
			got.SetStress(on)
			want.stress = on
		case 13:
			switch sel := p.u8(); {
			case sel < 64:
				checkLines(op)
				got.Reset()
				want.Reset()
			case sel < 96:
				// The system is closed and the next one built: every line
				// touched so far must read as DRAM in both (checked by the
				// Contains sweeps that follow), stress off, counters zero.
				checkLines(op)
				old := tagArrays(got)
				got.Release()
				got, want = build(cfg), newRefHierarchy(cfg)
				for _, a := range tagArrays(got) {
					if slices.Contains(old[:], a) {
						recycledArrays++
					}
				}
			default:
				got.ResetStats()
				want.stats = Stats{}
			}
		case 14:
			a := addr()
			if g, w := got.Contains(a), want.Contains(a); g != w {
				t.Fatalf("op %d: Contains(0x%x) = %s, reference %s", op, a, g, w)
			}
		case 15:
			access(op, prev, 8, Kind(p.u8()%3), false)
		}
		if g, w := got.Stats(), want.stats; g != w {
			t.Fatalf("op %d: stats diverged:\n got %+v\nwant %+v", op, g, w)
		}
	}
	checkLines(-1)
	return cfg, touched
}

func randomProgram(rng *rand.Rand) []byte {
	b := make([]byte, 64+rng.Intn(3072))
	rng.Read(b)
	return b
}

func TestHierarchyDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	before := recycledArrays
	for i := 0; i < 300; i++ {
		hierarchyDiff(t, randomProgram(rng))
	}
	if recycledArrays == before {
		t.Fatal("no recycle op got an array back from the shelf: the differential never ran on a reused one")
	}
}

func FuzzHierarchy(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		f.Add(randomProgram(rng))
	}
	f.Fuzz(hierarchyDiff)
}
