package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Group is the multi-core conservative simulation engine: one Engine per
// fabric shard, advanced by core-pinned worker goroutines, synchronized so
// that digests and simulated times are bit-identical to running everything
// on a single engine.
//
// # Execution model
//
// The group alternates between two regimes.
//
// Serial regime: while any serial hold is armed (HoldSerial), the
// coordinator executes one globally-earliest event at a time, picked by
// (at, seq) across every shard's heap. All engines draw sequence numbers
// from one shared counter while serial, so the tie-break order is exactly
// the order a single engine would have produced — serial execution is
// bit-exact by construction, not by argument. Model layers arm holds
// around zero-lookahead global actions (lazy channel setup, RIED
// hot-swaps, scenario phase barriers) that conservative parallelism
// cannot reorder safely.
//
// Windowed regime: with no holds armed, the coordinator computes the
// horizon H = min(next event time over all shards) + lookahead and wakes
// the workers; each shard executes its local events with time < H
// concurrently. The lookahead is the backend's minimum cross-shard
// latency, so any cross-shard effect produced inside a window lands at or
// beyond H and is exchanged at the barrier: per-pair hand-off queues are
// single-writer during the window and drained by the coordinator, which
// merges each destination's arrivals in (at, issueAt, srcShard, order)
// order — the same order a single engine's scheduling would have given
// them — before the next round.
//
// The coordinator is itself an executor: it owns the first shard block
// (assign[0]) and runs it inline between releasing a window and waiting at
// the barrier, so only workers-1 goroutines are spawned and no core burns
// in a pure wait loop. Barrier waits on both sides are hybrid: a bounded
// polite spin (runtime.Gosched) for the common fast hand-off, then a
// sync.Cond park so oversubscribed hosts (workers ≥ cores) stop paying a
// spinning core per shard. Spawned workers lock their OS thread for the
// duration of a run, pinning each shard block to one kernel thread.
//
// A backend that advertises more lookahead than it has is caught at the
// barrier: a merged arrival earlier than its destination shard's clock
// means the window already ran past it, and the group fails loudly with
// the "lookahead contract violated" diagnostic instead of scheduling it.
//
// Holds only ever release (the sensitive prefix of a run is serial, the
// steady state parallel); the serial->windowed transition detaches the
// shared sequence counter once, keeping per-shard counters monotone.
type Group struct {
	engines   []*Engine
	lookahead Duration
	workers   int

	seq      uint64 // shared scheduling counter while attached
	attached bool
	holds    int
	windows  uint64 // parallel windows executed (engagement metric)

	// windowed is true only between a window wake and its barrier. It is
	// written by the coordinator before the round release and read by
	// workers after observing the round counter, so the atomics below
	// order every access (as they do horizon).
	windowed bool
	horizon  Time // current window's conservative horizon H

	// queues[src][dst] is the cross-shard hand-off lane: appended to only
	// by src's executor during a window, drained only by the coordinator
	// at the barrier.
	queues [][][]handoff
	merge  []handoff // coordinator scratch for per-destination merging

	// Barrier machinery. The atomics are the fast path (bounded spin); pmu
	// with the two conds is the slow path. round releases a window to the
	// workers, done counts finished workers back in, acks counts quit
	// acknowledgements; wakeCond parks workers between windows, idleCond
	// parks the coordinator waiting for the fleet.
	round    atomic.Uint64
	done     atomic.Int64
	acks     atomic.Int64
	quit     atomic.Bool
	pmu      sync.Mutex
	wakeCond *sync.Cond
	idleCond *sync.Cond
	running  bool
	failed   bool
	assign   [][]int // executor index -> owned shards; executor 0 is the coordinator
	failure  atomic.Pointer[panicValue]
}

// handoff is one cross-shard event in flight between a window and its
// barrier. issueAt (the source shard's clock when the event was issued)
// is the first tie-break for equal arrival times: an event issued at an
// earlier simulated time was scheduled earlier on a single engine.
type handoff struct {
	at       Time
	issueAt  Time
	pSchedAt Time
	src      int
	fn       func()
}

type panicValue struct{ v any }

// NewGroup builds a conservative parallel engine over n shard engines.
// lookahead must be a lower bound on the latency of every cross-shard
// interaction; workers is clamped to [1, n].
func NewGroup(n, workers int, lookahead Duration) *Group {
	if n < 1 {
		panic("sim: group needs at least one shard")
	}
	if lookahead <= 0 {
		panic("sim: group needs a positive cross-shard lookahead")
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	g := &Group{
		engines:   make([]*Engine, n),
		lookahead: lookahead,
		workers:   workers,
		attached:  true,
		queues:    make([][][]handoff, n),
	}
	g.wakeCond = sync.NewCond(&g.pmu)
	g.idleCond = sync.NewCond(&g.pmu)
	for i := range g.engines {
		g.engines[i] = NewEngine()
		g.engines[i].shardID = uint32(i)
		g.engines[i].attachSeq(&g.seq)
		g.queues[i] = make([][]handoff, n)
	}
	g.assign = make([][]int, workers)
	for s := 0; s < n; s++ {
		w := s % workers
		g.assign[w] = append(g.assign[w], s)
	}
	return g
}

// Shards returns the number of shard engines.
func (g *Group) Shards() int { return len(g.engines) }

// Workers returns the executor count windows run on (the coordinator
// included — only workers-1 goroutines are spawned).
func (g *Group) Workers() int { return g.workers }

// Lookahead returns the conservative cross-shard window.
func (g *Group) Lookahead() Duration { return g.lookahead }

// Windows reports how many parallel windows have executed — the
// engagement metric distinguishing the windowed regime from a run that
// silently degraded to serial stepping.
func (g *Group) Windows() uint64 { return g.windows }

// Engine returns shard i's engine. Scheduling directly on it is legal
// from setup code and from events already running on that shard; all
// cross-shard scheduling must go through Handoff.
func (g *Group) Engine(i int) *Engine { return g.engines[i] }

// Now returns the global clock: the time of the latest executed event
// across all shards.
func (g *Group) Now() Time {
	var t Time
	for _, e := range g.engines {
		if e.now > t {
			t = e.now
		}
	}
	return t
}

// Pending reports the total number of queued events.
func (g *Group) Pending() int {
	n := 0
	for _, e := range g.engines {
		n += e.Pending()
	}
	return n
}

// Steps returns the number of events executed group-wide.
func (g *Group) Steps() uint64 {
	var n uint64
	for _, e := range g.engines {
		n += e.nSteps
	}
	return n
}

// HoldSerial arms (one more) serial hold: until every hold is released
// the group executes one globally-ordered event at a time. Calling it is
// only legal before Run or from within an event executing serially —
// holds gate parallelism on, never interrupt it.
func (g *Group) HoldSerial() { g.holds++ }

// ReleaseSerial releases one serial hold.
func (g *Group) ReleaseSerial() {
	if g.holds <= 0 {
		panic("sim: ReleaseSerial without a matching HoldSerial")
	}
	g.holds--
}

// SerialHolds reports the number of armed holds.
func (g *Group) SerialHolds() int { return g.holds }

// Handoff schedules fn at time at on shard dst on behalf of shard src.
// Outside a window it schedules directly (coordinator context, globally
// ordered); inside a window it enqueues on the src->dst hand-off lane for
// the barrier merge. at must be at least the issuing shard's current time
// plus the group's lookahead when called from a window.
func (g *Group) Handoff(src, dst int, at Time, fn func()) {
	se := g.engines[src]
	if !g.windowed {
		// Serial regime (or setup): schedule directly, stamped with the
		// issuing shard's clock — the global current time, since serial
		// execution only ever advances the executing shard.
		g.engines[dst].atFrom(at, se.now, se.curSchedAt, uint32(src), fn)
		return
	}
	g.queues[src][dst] = append(g.queues[src][dst],
		handoff{at: at, issueAt: se.now, pSchedAt: se.curSchedAt, src: src, fn: fn})
}

// Step executes the single globally-earliest pending event, serially.
// It reports whether an event was executed. Between runs (and in tests)
// it is the deterministic single-step primitive; Run uses it for every
// serial-regime event.
//
// Head events are compared by the same (at, schedAt, pSchedAt, ...)
// order the per-shard heaps use. While the shared counter is attached
// (the serial regime proper) sequence numbers are globally unique and
// decide every remaining tie exactly as a single engine would; after
// detach (Await-style stepping of an already-windowed group) seqs from
// different shards are only comparable for serial-era events, so the
// lineage stamps and the shard index break cross-shard ties instead.
func (g *Group) Step() bool {
	best := -1
	var bh event
	for i, e := range g.engines {
		h, ok := e.peekHead()
		if !ok {
			continue
		}
		if best < 0 || headLess(&h, i, &bh, best, g) {
			best, bh = i, h
		}
	}
	if best < 0 {
		return false
	}
	g.engines[best].Step()
	return true
}

// headLess orders two engines' head events globally (see Step).
func headLess(a *event, ai int, b *event, bi int, g *Group) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.schedAt != b.schedAt {
		return a.schedAt < b.schedAt
	}
	if a.pSchedAt != b.pSchedAt {
		return a.pSchedAt < b.pSchedAt
	}
	aSerial := a.seq <= g.engines[ai].serialMax
	bSerial := b.seq <= g.engines[bi].serialMax
	if aSerial && bSerial {
		// Shared-counter era: seq is the exact global scheduling order.
		return a.seq < b.seq
	}
	if aSerial != bSerial {
		// Mixed eras: everything serial-scheduled precedes window-era
		// scheduling at the same instant.
		return aSerial
	}
	if a.src != b.src {
		return a.src < b.src
	}
	if ai != bi {
		return ai < bi
	}
	return a.seq < b.seq
}

// Run executes events until the group is quiescent, honoring serial
// holds and running hold-free stretches as parallel windows.
func (g *Group) Run() { g.run(maxTime) }

// RunUntil executes events with time <= deadline, then advances every
// idle shard clock to the deadline (single-engine RunUntil semantics).
func (g *Group) RunUntil(deadline Time) {
	g.run(deadline)
	for _, e := range g.engines {
		e.AdvanceTo(deadline)
	}
}

// RunFor executes events for d of simulated time from the global clock.
func (g *Group) RunFor(d Duration) { g.RunUntil(g.Now().Add(d)) }

const maxTime = Time(1<<63 - 1)

func (g *Group) run(deadline Time) {
	defer g.releaseLanes()
	defer g.stopWorkers()
	for {
		minAt, ok := g.minNext()
		if !ok || minAt > deadline {
			return
		}
		if g.holds > 0 {
			g.Step()
			continue
		}
		// Hold-free: run a parallel window. The first window permanently
		// detaches the shared sequence counter (holds only ever release,
		// so the group never returns to the attached serial regime).
		g.detach()
		h := minAt.Add(g.lookahead)
		if deadline != maxTime && h > deadline {
			// Cap at the deadline but keep RunUntil's inclusive bound.
			h = deadline + 1
		}
		g.window(h)
	}
}

func (g *Group) detach() {
	if !g.attached {
		return
	}
	g.attached = false
	for _, e := range g.engines {
		e.detachSeq()
	}
}

// minNext returns the earliest pending event time across shards.
func (g *Group) minNext() (Time, bool) {
	best := false
	var bAt Time
	for _, e := range g.engines {
		if at, _, ok := e.Peek(); ok && (!best || at < bAt) {
			best, bAt = true, at
		}
	}
	return bAt, best
}

// window runs one parallel round to horizon h and merges the hand-offs.
// The coordinator executes its own shard block inline; spawned workers
// handle the rest.
func (g *Group) window(h Time) {
	g.windows++
	g.horizon = h
	g.windowed = true
	spawned := g.workers - 1
	if spawned > 0 {
		g.startWorkers()
		g.done.Store(0)
		g.round.Add(1) // release: workers observe windowed, horizon
		g.pmu.Lock()
		g.wakeCond.Broadcast()
		g.pmu.Unlock()
	}
	g.runShards(g.assign[0])
	if spawned > 0 {
		g.awaitCount(&g.done, int64(spawned))
	}
	g.windowed = false
	if p := g.failure.Load(); p != nil {
		g.failed = true
		panic(p.v)
	}
	g.mergeHandoffs()
}

// runShards executes one executor's shard block up to the current
// window's horizon. A model panic is captured for the coordinator to
// rethrow after the barrier.
func (g *Group) runShards(shards []int) {
	defer func() {
		if r := recover(); r != nil {
			g.failure.CompareAndSwap(nil, &panicValue{v: fmt.Errorf("sim: worker shard panic: %v", r)})
		}
	}()
	for _, s := range shards {
		g.engines[s].RunBefore(g.horizon)
	}
}

// mergeHandoffs drains every cross-shard lane and inserts each
// destination's arrivals in deterministic order: collected src-major (so
// a stable sort by (at, issueAt) leaves equal keys in (src, enqueue)
// order), which reproduces the scheduling order of a single engine —
// earlier issue first, then source node order, which shard blocks and
// per-shard enqueue order are aligned with.
func (g *Group) mergeHandoffs() {
	for dst := range g.engines {
		batch := g.merge[:0]
		for src := range g.engines {
			q := g.queues[src][dst]
			if len(q) == 0 {
				continue
			}
			batch = append(batch, q...)
			for i := range q {
				q[i] = handoff{}
			}
			g.queues[src][dst] = q[:0]
		}
		if len(batch) == 0 {
			g.merge = batch
			continue
		}
		insertionSortHandoffs(batch)
		e := g.engines[dst]
		for i := range batch {
			if batch[i].at < e.now {
				// The backend broke its Lookahead contract: the window
				// already ran the destination past this arrival.
				g.failed = true
				panic(fmt.Sprintf(
					"sim: lookahead contract violated: shard %d -> %d arrival at %d lands before the destination clock %d",
					batch[i].src, dst, int64(batch[i].at), int64(e.now)))
			}
			// Stamp the arrival with its issue time: the heap's
			// (at, schedAt, seq) order then slots it among the
			// destination's same-timestamp local events exactly where a
			// single engine's scheduling would have.
			e.atFrom(batch[i].at, batch[i].issueAt, batch[i].pSchedAt, uint32(batch[i].src), batch[i].fn)
			batch[i] = handoff{}
		}
		g.merge = batch[:0]
	}
}

// insertionSortHandoffs stable-sorts a barrier batch by (at, issueAt).
// Batches are small (one window's cross-shard traffic) and collected
// nearly sorted, where insertion sort beats the generic sort without
// allocating.
func insertionSortHandoffs(b []handoff) {
	for i := 1; i < len(b); i++ {
		h := b[i]
		j := i - 1
		for j >= 0 && (b[j].at > h.at || (b[j].at == h.at &&
			(b[j].issueAt > h.issueAt || (b[j].issueAt == h.issueAt && b[j].pSchedAt > h.pSchedAt)))) {
			b[j+1] = b[j]
			j--
		}
		b[j+1] = h
	}
}

// maxRetainedLane caps the hand-off capacity an idle Group keeps per
// cross-shard lane between runs: peak-window lanes above it are released
// so an O(shards²) lane matrix does not pin peak memory across scenarios.
const maxRetainedLane = 64

// releaseLanes drops oversized hand-off lanes and the merge scratch at
// the end of a run (all are empty by then; only capacity is at stake).
func (g *Group) releaseLanes() {
	for src := range g.queues {
		for dst, q := range g.queues[src] {
			if cap(q) > maxRetainedLane {
				g.queues[src][dst] = nil
			}
		}
	}
	g.merge = nil
}

// barrierSpin bounds the polite-spin phase of every barrier wait before
// the waiter parks on a cond: long enough to catch the common sub-window
// hand-off without a syscall, short enough that oversubscribed hosts
// (workers ≥ cores) degrade to parking instead of burning cores.
const barrierSpin = 256

// startWorkers spawns the window workers (executors 1..workers-1) on
// first use within a run; the coordinator is executor 0.
func (g *Group) startWorkers() {
	if g.running {
		return
	}
	g.running = true
	g.quit.Store(false)
	g.round.Store(0)
	base := g.round.Load()
	for w := 1; w < g.workers; w++ {
		go g.worker(g.assign[w], base)
	}
}

// stopWorkers retires the worker goroutines at the end of a run, so an
// idle Group pins no goroutines (or OS threads) between runs.
func (g *Group) stopWorkers() {
	if !g.running {
		return
	}
	g.quit.Store(true)
	g.round.Add(1)
	g.pmu.Lock()
	g.wakeCond.Broadcast()
	g.pmu.Unlock()
	// Wait for every worker to acknowledge, so a subsequent run's workers
	// never race a retiring generation.
	g.awaitCount(&g.acks, int64(g.workers-1))
	g.running = false
	g.acks.Store(0)
	g.done.Store(0)
	if p := g.failure.Load(); p != nil && !g.failed {
		g.failed = true
		panic(p.v)
	}
}

// awaitRound is the worker side of the release barrier: a bounded polite
// spin on the round counter, then a park on wakeCond (re-checked under
// the lock, so a release between the last poll and the park is never
// lost). It returns the observed round.
func (g *Group) awaitRound(last uint64) uint64 {
	for i := 0; i < barrierSpin; i++ {
		if r := g.round.Load(); r != last {
			return r
		}
		runtime.Gosched()
	}
	g.pmu.Lock()
	for g.round.Load() == last {
		g.wakeCond.Wait()
	}
	r := g.round.Load()
	g.pmu.Unlock()
	return r
}

// awaitCount is the coordinator side: spin briefly for c to reach n, then
// park on idleCond until the last counted worker signals it.
func (g *Group) awaitCount(c *atomic.Int64, n int64) {
	for i := 0; i < barrierSpin; i++ {
		if c.Load() >= n {
			return
		}
		runtime.Gosched()
	}
	g.pmu.Lock()
	for c.Load() < n {
		g.idleCond.Wait()
	}
	g.pmu.Unlock()
}

// signalIdle wakes a possibly-parked coordinator; called by the worker
// whose count increment completed the barrier.
func (g *Group) signalIdle() {
	g.pmu.Lock()
	g.idleCond.Broadcast()
	g.pmu.Unlock()
}

// worker is one spawned window executor: it waits (spin, then park) for
// the next round, runs its shard block to the horizon, and reports
// back. The OS thread is locked for the run, pinning the shard block's
// cache footprint to one kernel thread.
func (g *Group) worker(shards []int, last uint64) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	spawned := int64(g.workers - 1)
	for {
		last = g.awaitRound(last)
		if g.quit.Load() {
			if g.acks.Add(1) == spawned {
				g.signalIdle()
			}
			return
		}
		g.runShards(shards)
		if g.done.Add(1) == spawned {
			g.signalIdle()
		}
	}
}
