package memsim

import (
	"math"
	"math/bits"

	"twochains/internal/model"
	"twochains/internal/sim"
)

// Kind distinguishes access types; instruction fetches and data reads share
// the hierarchy in this model (the LLC is unified, and the L2 on the
// modelled part is shared between I and D streams).
type Kind int

const (
	Read  Kind = iota // data load
	Write             // data store (write-allocate)
	Fetch             // instruction fetch
)

// Config selects geometry and features for one node's hierarchy.
type Config struct {
	L2Size, L2Ways   int
	L3Size, L3Ways   int
	LLCSize, LLCWays int
	LineSize         int
	Stash            bool // inbound network writes land in the LLC
	Prefetch         bool // stride prefetcher enabled
	Seed             uint64
}

// DefaultConfig returns the paper-testbed geometry with stashing and
// prefetching enabled (the firmware defaults in §VI-C).
func DefaultConfig() Config {
	return Config{
		L2Size: model.L2Size, L2Ways: model.L2Ways,
		L3Size: model.L3Size, L3Ways: model.L3Ways,
		LLCSize: model.LLCSize, LLCWays: model.LLCWays,
		LineSize: model.LineSize,
		Stash:    true,
		Prefetch: true,
		Seed:     model.DefaultSeed,
	}
}

// Stats counts where accesses were satisfied.
type Stats struct {
	Accesses   uint64
	LinesL2    uint64
	LinesL3    uint64
	LinesLLC   uint64
	LinesDRAM  uint64 // DRAM lines no prefetch stream covered
	NetStashed uint64 // network lines written into LLC
	NetToDRAM  uint64 // network lines written to DRAM
}

type stream struct {
	nextLine uint64
	hits     int
	lastUse  uint64
}

// Hierarchy is one node's cache hierarchy plus DRAM timing, prefetcher and
// stress models. It is not safe for concurrent use; the simulation is
// single-threaded.
type Hierarchy struct {
	cfg         Config
	lineShift   uint // log2(cfg.LineSize)
	l2, l3, llc *cache
	streams     [model.PrefetchStreams]stream
	useCtr      uint64
	rng         *sim.RNG
	stress      bool
	stats       Stats
}

// New builds a hierarchy from cfg. A LineSize that is not a positive power
// of two selects the default geometry; Stash, Prefetch and Seed stay the
// caller's.
func New(cfg Config) *Hierarchy {
	if cfg.LineSize <= 0 || cfg.LineSize&(cfg.LineSize-1) != 0 {
		d := DefaultConfig()
		d.Stash, d.Prefetch, d.Seed = cfg.Stash, cfg.Prefetch, cfg.Seed
		cfg = d
	}
	return &Hierarchy{
		cfg:       cfg,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineSize))),
		l2:        newCache(cfg.L2Size, cfg.L2Ways, cfg.LineSize),
		l3:        newCache(cfg.L3Size, cfg.L3Ways, cfg.LineSize),
		llc:       newCache(cfg.LLCSize, cfg.LLCWays, cfg.LineSize),
		rng:       sim.NewRNG(cfg.Seed ^ 0x6d656d73696d), // "memsim"
	}
}

// SetStress toggles the co-running `stress-ng --class vm` interference
// model used by the tail-latency experiments.
func (h *Hierarchy) SetStress(on bool) { h.stress = on }

// Stats returns a copy of the counters.
func (h *Hierarchy) Stats() Stats { return h.stats }

// Span is the address span the model numbers at the default line size:
// 2^28 lines of 64 bytes, 16 GB. An address at or past it aliases the line
// of its remainder; core refuses a node whose address space reaches it.
const Span = (lineMask + 1) * model.LineSize

// line masks to 28 bits, so an access off the top of the span wraps to
// line 0.
func (h *Hierarchy) line(addr uint64) uint64 { return addr >> h.lineShift & lineMask }

// trainPrefetch records a DRAM-level miss for line and reports whether the
// line was covered by an already-hot stream (i.e. effectively prefetched).
func (h *Hierarchy) trainPrefetch(line uint64) bool {
	if !h.cfg.Prefetch {
		return false
	}
	h.useCtr++
	// Existing stream expecting this line?
	for i := range h.streams {
		s := &h.streams[i]
		if s.nextLine == line && s.hits > 0 {
			s.hits++
			s.nextLine = line + 1
			s.lastUse = h.useCtr
			return s.hits > model.PrefetchTrainMisses
		}
	}
	// Start a new stream, replacing the least recently used slot.
	victim := 0
	for i := range h.streams {
		if h.streams[i].lastUse < h.streams[victim].lastUse {
			victim = i
		}
	}
	h.streams[victim] = stream{nextLine: line + 1, hits: 1, lastUse: h.useCtr}
	return false
}

// Access models a CPU access (load, store, or instruction fetch) of size
// bytes at addr and returns its cost. Multi-line accesses are pipelined:
// the first line pays the full load-to-use latency of the level where it
// hits; subsequent lines pay the streaming (overlapped) per-line cost.
func (h *Hierarchy) Access(addr uint64, size int, k Kind) sim.Duration {
	return h.AccessSeq(addr, size, k, false)
}

// AccessSeq is Access with a sequential-stream hint: when seq is true the
// access continues a stream the caller has been walking (the previous line
// was just touched), so even its first line pays the overlapped streaming
// cost rather than the full load-to-use latency. The VM uses this for
// instruction fetch, where hardware fetch-ahead hides part of the next
// line's latency behind execution of the current one.
func (h *Hierarchy) AccessSeq(addr uint64, size int, k Kind, seq bool) sim.Duration {
	if h.Hit(addr, size) {
		return l2Cost(!seq, k)
	}
	if size <= 0 {
		return 0
	}
	h.stats.Accesses++
	first := h.line(addr)
	last := h.line(addr + uint64(size) - 1)
	var cost sim.Duration
	for line := first; ; line = (line + 1) & lineMask {
		cost += h.accessLine(line, line == first && !seq, k)
		if line == last {
			break
		}
	}
	return cost
}

// Hit answers the commonest access there is, one that stays in the MRU line
// of its L2 set (the next word of the line used last, a push after a pop):
// an L2 hit that reorders nothing, read from one tag word. It counts the
// access and reports true, and the caller charges what Access would have,
// model.L2HitLat (model.Cycles(1) for a line a sequential AccessSeq
// continues); otherwise it counts nothing and the caller calls Access or
// AccessSeq. It makes no call, so it inlines where the interpreter loads,
// stores and fetches.
func (h *Hierarchy) Hit(addr uint64, size int) bool {
	line, c := addr>>h.lineShift&lineMask, h.l2
	if size <= 0 || (addr+uint64(size)-1)>>h.lineShift&lineMask != line ||
		c.tags[int(line&c.setMask)*c.ways] != c.floor+1+uint32(line) {
		return false
	}
	h.stats.Accesses++
	h.stats.LinesL2++
	return true
}

// l2Cost is the cost of one line that hits in L2.
func l2Cost(lead bool, k Kind) sim.Duration {
	if lead {
		return model.L2HitLat
	}
	return streamCost(k, false, false, false, false)
}

// streamCost is the overlapped per-line cost for non-lead lines. Data
// streams enjoy deep memory-level parallelism; instruction fetch is a
// dependent chain (the next fetch waits on the previous line), so injected
// code reads overlap far less — the effect behind the code-delivery cost
// the paper measures in Fig. 7 and Fig. 9.
func streamCost(k Kind, l3, llc, dram, pref bool) sim.Duration {
	if k == Fetch {
		switch {
		case l3:
			return sim.FromNanos(6)
		case llc:
			return sim.FromNanos(14)
		case pref:
			return sim.FromNanos(12)
		case dram:
			return sim.FromNanos(34)
		}
		return model.Cycles(1)
	}
	switch {
	case l3:
		return sim.FromNanos(4)
	case llc:
		return sim.FromNanos(8)
	case pref:
		return model.PrefillLat
	case dram:
		return model.MLPStream
	}
	return model.Cycles(1)
}

// accessLine costs a single line and updates cache state: the line ends up
// as the MRU way of every level it reached (the hierarchy is modelled
// inclusive), filled into exactly the levels that missed. Each level's set
// is scanned once: touch finds the line or fills it in the same pass.
func (h *Hierarchy) accessLine(line uint64, lead bool, k Kind) sim.Duration {
	switch {
	case h.l2.touch(line):
		h.stats.LinesL2++
		return l2Cost(lead, k)
	case h.l3.touch(line):
		h.stats.LinesL3++
		if lead {
			return model.L3HitLat
		}
		return streamCost(k, true, false, false, false)
	case h.llc.touch(line):
		// Under stress the stashed line may have been evicted by the
		// co-running workload between arrival and the handler's read. The
		// refetch hits a recently written, likely-open row and overlaps
		// with neighbouring accesses, so it is charged as a streaming
		// DRAM line rather than a full cold load. It refills the LLC way
		// touch just made MRU, so the tags already say what the refetch
		// leaves behind.
		if h.stress && h.rng.Bernoulli(model.StressLLCEvictProb) {
			return h.dramLine(line, false, k)
		}
		h.stats.LinesLLC++
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

// dramLine costs a DRAM access for one line (one no level held, or one the
// stressor took from the LLC), consulting the prefetcher and the stress
// model; accessLine's touches have already filled all three levels. The stride
// prefetcher is a data-side engine: demand instruction fetches do not train
// it (the modest I-side next-line prefetch is already folded into the
// Fetch streaming cost), which is why code arriving in messages stays
// expensive to fetch from DRAM while large data payloads get covered —
// the interaction Fig. 9 measures.
func (h *Hierarchy) dramLine(line uint64, lead bool, k Kind) sim.Duration {
	prefetched := k != Fetch && h.trainPrefetch(line)
	var cost sim.Duration
	switch {
	case prefetched:
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

// stressDelay samples memory-system interference for one DRAM line.
// Queueing contention applies to every line; episodic spikes are sampled on
// lead lines (one episode per access, not per line).
func (h *Hierarchy) stressDelay(lead bool) sim.Duration {
	// Lognormal queueing delay whose median is the configured typical
	// value, scaled down for overlapped lines.
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

// NetworkWrite models inbound DMA from the NIC covering [addr, addr+size).
// With stashing enabled the lines are allocated directly into the LLC
// (paper §VI-C: "traffic arriving from the network is stashed into the LLC
// and, eventually, written back to main memory"); otherwise the data goes
// to DRAM and any cached copies are invalidated for coherence.
func (h *Hierarchy) NetworkWrite(addr uint64, size int) {
	if size <= 0 {
		return
	}
	firstLine := h.line(addr)
	lastLine := h.line(addr + uint64(size) - 1)
	for line := firstLine; ; line = (line + 1) & lineMask {
		// Inbound DMA always invalidates stale copies in the inner levels.
		h.l2.invalidate(line)
		h.l3.invalidate(line)
		if h.cfg.Stash {
			h.llc.touch(line)
			h.stats.NetStashed++
		} else {
			h.llc.invalidate(line)
			h.stats.NetToDRAM++
		}
		if line == lastLine {
			break
		}
	}
}

// Contains reports which level holds the line at addr: "L2", "L3", "LLC" or
// "DRAM". It does not update recency or stats.
//
//tclint:allow deadexport the simnet tests check where a delivered line landed through it
func (h *Hierarchy) Contains(addr uint64) string {
	line := h.line(addr)
	switch {
	case h.l2.holds(line):
		return "L2"
	case h.l3.holds(line):
		return "L3"
	case h.llc.holds(line):
		return "LLC"
	}
	return "DRAM"
}

// Release puts the tag arrays on the shelf New takes from; the owner calls
// it after the last access (core.Mesh.Close). One-line caches of its own
// stay behind, so a late access or a second Release reaches nothing given up.
func (h *Hierarchy) Release() {
	tagsMu.Lock()
	for _, c := range [...]*cache{h.l2, h.l3, h.llc} {
		tagShelf.Put(c, len(c.tags))
	}
	tagsMu.Unlock()
	h.l2, h.l3, h.llc = newCache(0, 1, 1), newCache(0, 1, 1), newCache(0, 1, 1)
}
