package memsim

import (
	"testing"
	"testing/quick"

	"twochains/internal/model"
	"twochains/internal/sim"
)

func testConfig(stash, prefetch bool) Config {
	c := DefaultConfig()
	c.Stash = stash
	c.Prefetch = prefetch
	return c
}

// occupancy returns the number of valid lines.
func (c *cache) occupancy() int {
	n := 0
	for _, t := range c.tags {
		if t > c.floor {
			n++
		}
	}
	return n
}

// mru reports whether line is the most recently used way of its set:
// present, and exactly where touch would leave it.
func (c *cache) mru(line uint64) bool { return c.set(line)[0] == c.floor+1+uint32(line) }

func TestCacheLookupInsert(t *testing.T) {
	c := newCache(64*1024, 4, 64) // 1024 lines, 256 sets
	if c.holds(100) {
		t.Fatal("empty cache hit")
	}
	if c.touch(100) {
		t.Fatal("touch of an absent line reported a hit")
	}
	if !c.holds(100) || !c.touch(100) {
		t.Fatal("inserted line missing")
	}
	if !c.invalidate(100) {
		t.Fatal("invalidate missed")
	}
	if c.holds(100) || c.invalidate(100) {
		t.Fatal("line present after invalidate")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newCache(4*64, 4, 64) // one set, 4 ways
	for line := uint64(0); line < 4; line++ {
		c.touch(line)
	}
	// Touch 0 so 1 becomes LRU.
	if !c.touch(0) {
		t.Fatal("line 0 missing before the eviction")
	}
	c.touch(99)
	if c.holds(1) {
		t.Fatal("LRU line 1 survived the eviction")
	}
	if !c.holds(0) || !c.holds(2) || !c.holds(3) || !c.mru(99) {
		t.Fatal("eviction took more than the LRU line")
	}
}

func TestCacheReinsertIsRefresh(t *testing.T) {
	c := newCache(4*64, 4, 64)
	for line := uint64(0); line < 4; line++ {
		c.touch(line)
	}
	if !c.touch(2) || !c.mru(2) {
		t.Fatal("re-touching a present line did not refresh it")
	}
	if c.occupancy() != 4 {
		t.Fatalf("occupancy = %d", c.occupancy())
	}
}

func TestCacheOccupancyNeverExceedsCapacity(t *testing.T) {
	f := func(lines []uint16) bool {
		c := newCache(8*64, 2, 64) // 8 lines, 2-way, 4 sets
		for _, l := range lines {
			c.touch(uint64(l))
		}
		return c.occupancy() <= 8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCacheInsertThenLookup(t *testing.T) {
	// Property: immediately after a touch, the line is present and MRU, and
	// touching it again hits.
	f := func(lines []uint32) bool {
		c := newCache(64*1024, 8, 64)
		for _, l := range lines {
			c.touch(uint64(l))
			if !c.mru(uint64(l)) || !c.holds(uint64(l)) || !c.touch(uint64(l)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHierarchyMissThenHit(t *testing.T) {
	h := New(testConfig(false, false))
	cold := h.Access(0x1000, 8, Read)
	if cold < model.DRAMLat {
		t.Fatalf("cold access %v cheaper than DRAM %v", cold, model.DRAMLat)
	}
	warm := h.Access(0x1000, 8, Read)
	if warm != model.L2HitLat {
		t.Fatalf("warm access %v, want L2 hit %v", warm, model.L2HitLat)
	}
}

func TestStashPlacesLinesInLLC(t *testing.T) {
	h := New(testConfig(true, false))
	h.NetworkWrite(0x2000, 256)
	for off := uint64(0); off < 256; off += 64 {
		if lvl := h.Contains(0x2000 + off); lvl != "LLC" {
			t.Fatalf("line at +%d in %s, want LLC", off, lvl)
		}
	}
	st := h.Stats()
	if st.NetStashed != 4 {
		t.Fatalf("NetStashed = %d, want 4", st.NetStashed)
	}
}

func TestNoStashGoesToDRAM(t *testing.T) {
	h := New(testConfig(false, false))
	// Pre-warm the line, then simulate inbound DMA: copies must be
	// invalidated so the handler pays a DRAM access.
	h.warmLines(0x3000, 64)
	h.NetworkWrite(0x3000, 64)
	if lvl := h.Contains(0x3000); lvl != "DRAM" {
		t.Fatalf("line in %s after non-stash DMA, want DRAM", lvl)
	}
	cost := h.Access(0x3000, 8, Read)
	if cost < model.DRAMLat {
		t.Fatalf("post-DMA read %v, want >= DRAM %v", cost, model.DRAMLat)
	}
}

func TestStashBeatsDRAMForHandlerRead(t *testing.T) {
	// The central claim of Fig. 9: reading a just-arrived frame is cheaper
	// when it was stashed.
	frame := 1472
	stash := New(testConfig(true, false))
	nonstash := New(testConfig(false, false))
	stash.NetworkWrite(0x8000, frame)
	nonstash.NetworkWrite(0x8000, frame)
	cs := stash.Access(0x8000, frame, Read)
	cn := nonstash.Access(0x8000, frame, Read)
	if cs >= cn {
		t.Fatalf("stash read %v not cheaper than non-stash %v", cs, cn)
	}
	ratio := float64(cn) / float64(cs)
	if ratio < 1.5 {
		t.Fatalf("stash advantage ratio %.2f too small for a 23-line frame", ratio)
	}
}

func TestPrefetcherNarrowsGap(t *testing.T) {
	// Fig. 9's second effect: once messages are large enough to trigger the
	// prefetcher, the stash advantage narrows.
	small, large := 256, 32768
	gap := func(size int) float64 {
		stash := New(testConfig(true, true))
		nonstash := New(testConfig(false, true))
		stash.NetworkWrite(0x10000, size)
		nonstash.NetworkWrite(0x10000, size)
		cs := stash.Access(0x10000, size, Read)
		cn := nonstash.Access(0x10000, size, Read)
		return (float64(cn) - float64(cs)) / float64(cn)
	}
	gs, gl := gap(small), gap(large)
	if gs <= gl {
		t.Fatalf("relative stash gap small=%.3f should exceed large=%.3f", gs, gl)
	}
	if gl > 0.35 {
		t.Fatalf("large-message gap %.3f; prefetcher should have narrowed it", gl)
	}
}

func TestPrefetcherTrainsOnSequentialMisses(t *testing.T) {
	h := New(testConfig(false, true))
	// Stream through 64 cold lines; after training, lines should be
	// "prefetched", which LinesDRAM does not count.
	h.Access(0x100000, 64*64, Read)
	covered := 64 - h.Stats().LinesDRAM
	if covered == 0 {
		t.Fatal("no prefetch-covered lines on a 64-line stream")
	}
	if covered < 50 {
		t.Fatalf("prefetch covered %d lines, want most of the 64-line stream", covered)
	}
}

func TestPrefetcherOffMeansNoPrefLines(t *testing.T) {
	h := New(testConfig(false, false))
	h.Access(0x100000, 64*64, Read)
	if st := h.Stats(); st.LinesDRAM != 64 {
		t.Fatalf("LinesDRAM = %d of 64 cold lines with prefetcher off", st.LinesDRAM)
	}
}

func TestStressAddsDelayAndTail(t *testing.T) {
	quiet := New(testConfig(false, false))
	loaded := New(testConfig(false, false))
	loaded.SetStress(true)
	const n = 4000
	var qSum, lSum sim.Duration
	var lMax sim.Duration
	for i := 0; i < n; i++ {
		addr := uint64(0x40000 + i*4096) // distinct pages: always DRAM
		qSum += quiet.Access(addr, 64, Read)
		d := loaded.Access(addr, 64, Read)
		lSum += d
		if d > lMax {
			lMax = d
		}
	}
	if lSum <= qSum {
		t.Fatal("stress did not increase mean DRAM cost")
	}
	// Heavy tail: the max under load should far exceed the quiet mean.
	if float64(lMax) < 5*float64(qSum)/n {
		t.Fatalf("no heavy tail: max %v vs quiet mean %v", lMax, sim.Duration(int64(qSum)/n))
	}
}

// TestStressSpikeCap pins the summed stressDelay of a fixed-seed stream
// of lead lines long enough that the spike cap (StressSpikeCapNs) clamps
// several Pareto spikes: about 0.28 % of lead lines spike and about
// 0.32 % of spikes pass the cap, so a million draws clamp some nine (this
// stream clamps seven).
func TestStressSpikeCap(t *testing.T) {
	h := New(testConfig(false, false))
	h.SetStress(true)
	capped := sim.FromNanos(model.StressSpikeCapNs)
	var sum sim.Duration
	clamped := 0
	for i := 0; i < 1000000; i++ {
		d := h.stressDelay(true)
		sum += d
		if d >= capped {
			clamped++
		}
	}
	if clamped < 3 {
		t.Fatalf("%d draws reached the spike cap, want several", clamped)
	}
	const wantSum = sim.Duration(178841294613)
	if sum != wantSum {
		t.Fatalf("summed stress delay %d, want %d (%d draws at the cap)", int64(sum), int64(wantSum), clamped)
	}
}

func TestStressCanEvictStashedLines(t *testing.T) {
	h := New(testConfig(true, false))
	h.SetStress(true)
	for i := 0; i < 2000; i++ {
		addr := uint64(0x200000 + i*64)
		h.NetworkWrite(addr, 64)
		h.Access(addr, 8, Read)
	}
	// Every read finds its line stashed in the LLC; one the stressor took
	// is refetched from DRAM instead.
	st := h.Stats()
	if st.LinesLLC+st.LinesDRAM != 2000 {
		t.Fatalf("LLC %d + DRAM %d lines, want 2000 reads", st.LinesLLC, st.LinesDRAM)
	}
	evictions := int(st.LinesDRAM)
	if evictions == 0 {
		t.Fatal("stress never evicted a stashed line in 2000 trials")
	}
	// Expect roughly StressLLCEvictProb of reads to be affected.
	frac := float64(evictions) / 2000
	if frac < 0.005 || frac > 0.15 {
		t.Fatalf("eviction fraction %.4f implausible", frac)
	}
}

func TestWarmLinesMakesL2Hits(t *testing.T) {
	h := New(testConfig(false, false))
	h.warmLines(0x7000, 1408)
	cost := h.Access(0x7000, 1408, Fetch)
	// 22 lines, first at L2 latency, rest pipelined at ~1 cycle.
	expectMax := model.L2HitLat + 30*model.Cycles(1)
	if cost > expectMax {
		t.Fatalf("warm fetch cost %v, want <= %v", cost, expectMax)
	}
}

func TestAccessZeroSize(t *testing.T) {
	h := New(testConfig(true, true))
	if d := h.Access(0x1000, 0, Read); d != 0 {
		t.Fatalf("zero-size access cost %v", d)
	}
}

func TestResetClearsState(t *testing.T) {
	h := New(testConfig(true, true))
	h.NetworkWrite(0x9000, 512)
	h.Access(0x9000, 512, Read)
	h.reset()
	if h.Stats().Accesses != 0 {
		t.Fatal("stats not cleared")
	}
	if lvl := h.Contains(0x9000); lvl != "DRAM" {
		t.Fatalf("line still in %s after reset", lvl)
	}
}

func TestDeterministicUnderSameSeed(t *testing.T) {
	run := func() sim.Duration {
		h := New(testConfig(false, false))
		h.SetStress(true)
		var sum sim.Duration
		for i := 0; i < 500; i++ {
			sum += h.Access(uint64(0x80000+i*4096), 64, Read)
		}
		return sum
	}
	if run() != run() {
		t.Fatal("same seed produced different totals")
	}
}

func TestInclusionProperty(t *testing.T) {
	// After a CPU read fill, the line is present at every level (inclusive
	// hierarchy): evicting nothing, a subsequent L2 invalidate must still
	// find it in L3/LLC.
	h := New(testConfig(false, false))
	h.Access(0xA000, 8, Read)
	h.l2.invalidate(h.line(0xA000))
	if lvl := h.Contains(0xA000); lvl != "L3" {
		t.Fatalf("line in %s, want L3 after L2 invalidate", lvl)
	}
}

func TestMultiLineLeadCostDominates(t *testing.T) {
	// Property: cost of reading k cold lines in one access is far less than
	// k independent cold accesses (pipelining), but more than one line.
	h := New(testConfig(false, false))
	one := h.Access(0xB0000, 64, Read)
	h2 := New(testConfig(false, false))
	eight := h2.Access(0xC0000, 512, Read)
	if eight <= one {
		t.Fatal("8-line access not costlier than 1-line")
	}
	if eight >= 8*one {
		t.Fatalf("no overlap: 8 lines cost %v vs 8x one-line %v", eight, 8*one)
	}
}

func TestGeometryIsTotal(t *testing.T) {
	sets := func(c *cache) int { return len(c.tags) / c.ways }
	small := Config{L2Size: 256, L2Ways: 2, L3Size: 512, L3Ways: 2, LLCSize: 1024, LLCWays: 4, LineSize: 64, Seed: 9}
	with := func(edit func(*Config)) Config {
		c := small
		edit(&c)
		return c
	}
	// l2Sets 0 means the default geometry is expected. Stash, Prefetch and
	// Seed must come out as they went in, in every row.
	for _, tc := range []struct {
		name           string
		cfg            Config
		l2Sets, l2Ways int
	}{
		{"as given", small, 2, 2},
		{"zero ways", with(func(c *Config) { c.L2Ways = 0 }), 4, 1},
		{"negative ways", with(func(c *Config) { c.L2Ways = -3 }), 4, 1},
		{"three sets round down to two", with(func(c *Config) { c.L2Size = 3 * 2 * 64 }), 2, 2},
		{"smaller than one set", with(func(c *Config) { c.L2Size = 0 }), 1, 2},
		{"more ways than lines", with(func(c *Config) { c.L2Ways = 64 }), 1, 64},
		{"negative size", with(func(c *Config) { c.L2Size = -4096 }), 1, 2},
		{"line size zero, stash off", Config{Prefetch: true, Seed: 5}, 0, 0},
		{"line size zero, stash on", Config{Stash: true}, 0, 0},
		{"line size not a power of two", with(func(c *Config) { c.LineSize = 48; c.Stash = true }), 0, 0},
		{"negative line size", with(func(c *Config) { c.LineSize = -64 }), 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			line := tc.cfg.LineSize
			if tc.l2Sets == 0 {
				tc.l2Sets, tc.l2Ways, line = model.L2Size/model.LineSize/model.L2Ways, model.L2Ways, model.LineSize
			}
			h := New(tc.cfg)
			if got := h.cfg; got.Stash != tc.cfg.Stash || got.Prefetch != tc.cfg.Prefetch || got.Seed != tc.cfg.Seed || got.LineSize != line {
				t.Fatalf("config %+v from %+v, want line size %d and the caller's stash, prefetch and seed", got, tc.cfg, line)
			}
			if sets(h.l2) != tc.l2Sets || h.l2.ways != tc.l2Ways {
				t.Fatalf("L2 is %d sets x %d ways, want %d x %d", sets(h.l2), h.l2.ways, tc.l2Sets, tc.l2Ways)
			}
			// Whatever the geometry came out as, it works: more lines than
			// the L2 holds go through it and the last one read stays.
			n := 4 * tc.l2Sets * tc.l2Ways
			for i := 0; i < n; i++ {
				h.Access(uint64(i*line), 8, Read)
			}
			h.NetworkWrite(0, 3*line)
			want := "DRAM"
			if tc.cfg.Stash {
				want = "LLC"
			}
			if lvl := h.Contains(0); lvl != want {
				t.Fatalf("line 0 in %s after a NIC write, want %s", lvl, want)
			}
			if lvl := h.Contains(uint64((n - 1) * line)); lvl != "L2" {
				t.Fatalf("last line read is in %s, want L2", lvl)
			}
			if h.l2.occupancy() > tc.l2Sets*tc.l2Ways {
				t.Fatalf("L2 holds %d lines, capacity %d", h.l2.occupancy(), tc.l2Sets*tc.l2Ways)
			}
		})
	}
}
