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
// arrays of 32-bit words, each set kept in recency order, decide where each
// line lives and which line an insert displaces) and analytic about *time*
// (per-line costs from internal/model). Line numbers are 28 bits wide: Span
// bytes at the default line size, 640 KB of tags a hierarchy.
package memsim

import (
	"sync"

	"twochains/internal/mem"
)

// A cache is a set-associative tag array with per-set LRU replacement.
// Only tags are modelled; data always lives in the node's address space.
//
// Each set holds its ways most recently used first, valid tags packed in
// front of free ones, so the LRU victim is whatever sits in the last way.
// This is observably the same as stamping every touch from a counter and
// evicting the smallest stamp: stamps of the valid ways of a set are
// distinct, so they define exactly this order; only membership and that
// order are ever read; and which physical way holds a line is invisible.
//
// A valid way holds floor + 1 + line, floor being the cache's generation
// shifted above the 28 line bits, and a word is free iff it is <= floor:
// reset, and reuse of the array by another hierarchy, start the next
// generation and clear nothing. What an earlier one wrote is unobservable:
// only t == floor+1+line and t <= floor are ever evaluated; a stale word is
// <= floor, as generations only grow (the largest tag of one is the floor
// of the next); and no shift moves a free word: touch overwrites the first
// one, invalidate writes a zero behind the last valid way. The top four
// bits of a word hold the generation, so an array is cleared once every 14
// reuses; a 16-way LLC set is one 64-byte host line.
type cache struct {
	ways    int
	setMask uint64   // sets-1; the set count is a power of two
	floor   uint32   // generation * genStep, at most maxFloor
	tags    []uint32 // sets*ways entries
}

const (
	lineMask = 1<<28 - 1 // Hierarchy.line masks line numbers to 28 bits
	genStep  = lineMask + 1
	maxFloor = 14 * genStep // its largest tag, maxFloor+genStep, still fits a word
)

// tagShelf holds released caches, array and generation together, for the
// next hierarchy in the process: up to 64 MiB of tags, room for a 64-node
// mesh's (640 KiB a node at the default geometry).
var (
	tagsMu   sync.Mutex
	tagShelf = mem.Shelf[*cache]{Max: 64 << 20 / 4}
)

// newCache is total for the line sizes New passes (powers of two): fewer
// than one way means one, and the set count is rounded down to a power of
// two, at least one. The tags are a shelved array of that length, uncleared.
func newCache(sizeBytes, ways, lineSize int) *cache {
	if ways < 1 {
		ways = 1
	}
	sets := 1
	for sets*2 <= sizeBytes/lineSize/ways {
		sets *= 2
	}
	n := sets * ways
	tagsMu.Lock()
	c, ok := tagShelf.Get(n)
	tagsMu.Unlock()
	if !ok {
		c = &cache{tags: make([]uint32, n)}
	}
	c.ways, c.setMask = ways, uint64(sets-1)
	c.reset()
	return c
}

// reset starts the next generation; past the last, it clears and restarts.
func (c *cache) reset() {
	if c.floor += genStep; c.floor > maxFloor {
		clear(c.tags)
		c.floor = genStep
	}
}

// set returns the ways line maps to.
func (c *cache) set(line uint64) []uint32 {
	base := int(line&c.setMask) * c.ways
	return c.tags[base : base+c.ways]
}

// find returns the way of set s that holds the tag want, or -1.
func find(s []uint32, want, floor uint32) int {
	for w, t := range s {
		if t == want {
			return w
		}
		if t <= floor {
			break
		}
	}
	return -1
}

// holds reports whether line is present, without touching recency.
func (c *cache) holds(line uint64) bool {
	return find(c.set(line), c.floor+1+uint32(line), c.floor) >= 0
}

// touch makes line the MRU way of its set, filling it if absent (the LRU way
// of a full set falls off the end), and reports whether it was present. It
// is one pass over the set that carries each way one down as it reads it,
// and stops at the line's own way, at the first free one (which the carry
// overwrites), or past the last (whose tag falls off).
func (c *cache) touch(line uint64) bool {
	s, want, floor := c.set(line), c.floor+1+uint32(line), c.floor
	carry := want
	for w, t := range s {
		s[w] = carry
		if t == want {
			return true
		}
		if t <= floor {
			return false
		}
		carry = t
	}
	return false
}

// invalidate removes line if present, reporting whether it was there. The
// valid ways behind it move up one, as far as the first free way; the free
// tail is left as it is.
func (c *cache) invalidate(line uint64) bool {
	s, want := c.set(line), c.floor+1+uint32(line)
	w := find(s, want, c.floor)
	if w < 0 {
		return false
	}
	for ; w < len(s)-1 && s[w+1] > c.floor; w++ {
		s[w] = s[w+1]
	}
	s[w] = 0
	return true
}
