// Package memsim models the testbed memory system of the Two-Chains paper:
// a 1 MB per-core L2, a 1 MB per-cluster L3, an 8 MB shared LLC, and
// DDR4-2666 DRAM, with three features the evaluation depends on:
//
//   - LLC stashing: traffic arriving from the network can be written
//     directly into the last-level cache instead of DRAM (paper §VI-C);
//   - a stride prefetcher that hides DRAM latency for streaming reads,
//     which narrows the stash advantage at large message sizes (Fig. 9);
//   - a stress mode reproducing `stress-ng --class vm` interference for the
//     tail-latency experiments (Fig. 11/12).
//
// The model is functional about *placement* (real set-associative tag
// arrays, each set kept in recency order, decide where each line lives and
// which line an insert displaces) and analytic about *time* (per-line costs
// from internal/model).
package memsim

// A cache is a set-associative tag array with per-set LRU replacement.
// Only tags are modelled; data always lives in the node's address space.
//
// Each set holds its ways most recently used first, valid tags packed in
// front of free ones, so the LRU victim is whatever sits in the last way.
// This is observably the same as stamping every touch from a counter and
// evicting the smallest stamp: stamps of the valid ways of a set are
// distinct, so they define exactly this order; only membership and that
// order are ever read; and which physical way holds a line is invisible.
type cache struct {
	ways    int
	setMask uint64   // sets-1; the set count is a power of two
	tags    []uint64 // sets*ways entries; line address + 1 (0 = free)
}

// newCache is total for the line sizes New passes (powers of two): fewer
// than one way means one, and the set count is rounded down to a power of
// two, at least one.
func newCache(sizeBytes, ways, lineSize int) *cache {
	if ways < 1 {
		ways = 1
	}
	sets := 1
	for sets*2 <= sizeBytes/lineSize/ways {
		sets *= 2
	}
	return &cache{ways: ways, setMask: uint64(sets - 1), tags: make([]uint64, sets*ways)}
}

// set returns the ways line maps to.
func (c *cache) set(line uint64) []uint64 {
	base := int(line&c.setMask) * c.ways
	return c.tags[base : base+c.ways]
}

// find returns the way of set s that holds line, or -1.
func find(s []uint64, line uint64) int {
	for w, t := range s {
		if t == line+1 {
			return w
		}
		if t == 0 {
			break
		}
	}
	return -1
}

// holds reports whether line is present, without touching recency.
func (c *cache) holds(line uint64) bool { return find(c.set(line), line) >= 0 }

// lookup reports whether line is present, making it the MRU way on a hit.
func (c *cache) lookup(line uint64) bool {
	s := c.set(line)
	w := find(s, line)
	if w > 0 {
		copy(s[1:w+1], s[:w])
		s[0] = line + 1
	}
	return w >= 0
}

// insertAbsent places a line the caller has just looked up and missed; the
// LRU way of a full set falls off the end.
func (c *cache) insertAbsent(line uint64) {
	s := c.set(line)
	copy(s[1:], s)
	s[0] = line + 1
}

// insert places line in the cache, or refreshes it if already present.
func (c *cache) insert(line uint64) {
	if !c.lookup(line) {
		c.insertAbsent(line)
	}
}

// invalidate removes line if present, reporting whether it was there.
func (c *cache) invalidate(line uint64) bool {
	s := c.set(line)
	w := find(s, line)
	if w < 0 {
		return false
	}
	copy(s[w:], s[w+1:])
	s[len(s)-1] = 0
	return true
}

// reset clears all tags.
func (c *cache) reset() { clear(c.tags) }
