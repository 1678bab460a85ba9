package sim

import "fmt"

// event is one scheduled callback, stored by value in the engine's queue.
// Events with equal times fire in the order they were scheduled: first by
// the simulated time they were scheduled at (schedAt), then FIFO by
// sequence number. On a single engine seq alone already encodes that
// order (scheduling happens in nondecreasing simulated time, so seq is
// monotone in schedAt and the tie-break is unchanged from the classic
// (at, seq) rule); schedAt exists so the parallel group can merge a
// cross-shard arrival into a destination heap at its true scheduling
// position among same-timestamp local events, reproducing the single
// engine's order even though the arrival's seq is assigned at the merge.
type event struct {
	at      Time
	schedAt Time
	// pSchedAt is the scheduling event's own schedAt — one more
	// generation of lineage. At equal (at, schedAt) — two events
	// scheduled at the same instant by different parents — the single
	// engine orders them by the order their parents executed, which at
	// one timestamp is exactly ascending parent-schedAt; carrying it
	// makes that comparison possible across shards, where sequence
	// numbers from different counters say nothing.
	pSchedAt Time
	seq      uint64
	// src is the shard that scheduled the event: the owning engine's own
	// shard id for everything scheduled locally (always 0 outside a
	// group), the issuing shard's id for a cross-shard arrival merged in
	// at a window barrier. For equal (at, schedAt) — simultaneous
	// scheduling on different shards, which symmetric workloads produce
	// systematically — ascending src reproduces the single engine's
	// order: shard blocks are laid out in node order, and simultaneous
	// scheduling chains trace back to the node-ordered roots.
	src uint32
	fn  func()
}

// less is the queue's strict total order: (at, schedAt, pSchedAt)
// ascending, then the lineage tie-break. Sequence numbers decide the
// final tie whenever they are meaningful — always on a single engine,
// and within a group's serial regime, where every engine draws from one
// shared counter so seq is exactly the global scheduling order. Only
// when both events were scheduled after the group detached into
// parallel windows (seq > serialMax) do per-shard counters stop being
// comparable across origins, and there the scheduling shard (src)
// breaks the tie: simultaneous same-lineage scheduling on different
// shards is the signature of a symmetric workload, whose single-engine
// order follows the node-ordered shard blocks. Because seq is unique
// per heap, two distinct events are never equal, so any heap shape pops
// them in exactly one order — on a single engine, the same order the
// old (at, seq) binary heap produced.
func (e *Engine) less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.schedAt != b.schedAt {
		return a.schedAt < b.schedAt
	}
	if a.pSchedAt != b.pSchedAt {
		return a.pSchedAt < b.pSchedAt
	}
	if a.src != b.src && a.seq > e.serialMax && b.seq > e.serialMax {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// Engine is a discrete-event simulation engine: a virtual clock plus an
// ordered queue of pending events. An Engine is not safe for concurrent use;
// the entire simulation runs single-threaded, which is what makes it
// deterministic.
//
// The queue is an inlined 4-ary min-heap over value-type events: pushes
// append into the slice and pops backfill from the tail, so the slice's
// capacity acts as the event free-list — steady-state scheduling performs
// no per-event allocation and no interface boxing. A 4-ary layout halves
// the tree depth of a binary heap, trading slightly wider sift-down scans
// (which stay within one cache line of siblings) for fewer levels touched
// per operation.
type Engine struct {
	now    Time
	queue  []event
	seq    uint64
	nSteps uint64
	// shardID is the engine's index within its Group (0 otherwise); it
	// stamps locally scheduled events' src component.
	shardID uint32
	// curSchedAt is the schedAt of the event currently executing — the
	// lineage stamp inherited by everything it schedules.
	curSchedAt Time
	// serialMax is the highest sequence number issued while this engine
	// drew from a group's shared counter (0 on plain engines, unbounded
	// while attached): at or below it, seq order is the exact global
	// scheduling order and wins every tie.
	serialMax uint64
	// seqShared, when non-nil, replaces the engine's private sequence
	// counter with a counter shared by every engine of a Group. While the
	// group executes serially, scheduling order — and therefore the
	// (at, seq) tie-break — is globally total, exactly as if all shards
	// shared one engine. Detaching (at the first parallel window) seeds
	// the private counter from the shared one, so per-shard sequence
	// numbers stay monotone across the transition.
	seqShared *uint64
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() uint64 { return e.nSteps }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it is always a model bug.
func (e *Engine) At(t Time, fn func()) {
	e.atFrom(t, e.now, e.curSchedAt, e.shardID, fn)
}

// AtScheduled schedules fn at absolute time t as if the scheduling had
// happened at simulated time schedAt. The parallel group uses it for
// cross-shard arrivals (stamped with their issue time on the source
// shard) and for driving idle shards whose local clock lags the global
// one; plain At — schedAt = now — is the only form model code needs.
func (e *Engine) AtScheduled(t, schedAt Time, fn func()) {
	e.atFrom(t, schedAt, schedAt, e.shardID, fn)
}

// atFrom is AtScheduled with explicit lineage and scheduling-shard
// stamps; group barrier merges use it to plant cross-shard arrivals at
// their issuer's position in the tie-break order.
func (e *Engine) atFrom(t, schedAt, pSchedAt Time, src uint32, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled in the past: %d < now %d", t, e.now))
	}
	if schedAt > t {
		schedAt = t
	}
	if pSchedAt > schedAt {
		pSchedAt = schedAt
	}
	var seq uint64
	if e.seqShared != nil {
		*e.seqShared++
		seq = *e.seqShared
	} else {
		e.seq++
		seq = e.seq
	}
	ev := event{at: t, schedAt: schedAt, pSchedAt: pSchedAt, seq: seq, src: src, fn: fn}
	q := append(e.queue, ev)
	// Sift up: move the hole toward the root until the parent sorts first.
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !e.less(&ev, &q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
	e.queue = q
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now.Add(d), fn)
}

// pop removes the earliest event and returns the three fields Step
// needs (the whole 48-byte event by value cost two stack copies per
// step). The vacated tail slot is zeroed so the queue does not pin the
// popped closure; the slice capacity is retained and reused by
// subsequent pushes.
func (e *Engine) pop() (at, schedAt Time, fn func()) {
	q := e.queue
	n := len(q) - 1
	at, schedAt, fn = q[0].at, q[0].schedAt, q[0].fn
	last := q[n]
	q[n] = event{}
	q = q[:n]
	if n > 0 {
		// Sift the former tail down from the root: at each level pick the
		// smallest of up to four children.
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if e.less(&q[j], &q[m]) {
					m = j
				}
			}
			if !e.less(&q[m], &last) {
				break
			}
			q[i] = q[m]
			i = m
		}
		q[i] = last
	}
	e.queue = q
	return at, schedAt, fn
}

// Pending reports the number of events waiting in the queue.
func (e *Engine) Pending() int { return len(e.queue) }

// Step executes the single earliest pending event, advancing the clock.
// It reports whether an event was executed.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	at, schedAt, fn := e.pop()
	e.now = at
	e.curSchedAt = schedAt
	e.nSteps++
	fn()
	return true
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with time <= deadline. Events scheduled beyond
// the deadline remain queued; the clock is left at the last executed event
// (or advanced to deadline if nothing else ran).
func (e *Engine) RunUntil(deadline Time) {
	for len(e.queue) > 0 && e.queue[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunFor executes events for d simulated time from now.
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now.Add(d)) }

// Peek reports the earliest pending event's time and sequence number
// without executing it; ok is false when the queue is empty. Group
// coordinators use it to pick the globally next event across shards.
func (e *Engine) Peek() (at Time, seq uint64, ok bool) {
	if len(e.queue) == 0 {
		return 0, 0, false
	}
	return e.queue[0].at, e.queue[0].seq, true
}

// peekHead returns the earliest pending event by value (fn dropped) for
// cross-engine ordering decisions; ok is false when the queue is empty.
func (e *Engine) peekHead() (ev event, ok bool) {
	if len(e.queue) == 0 {
		return event{}, false
	}
	ev = e.queue[0]
	ev.fn = nil
	return ev, true
}

// RunBefore executes events with time strictly before limit and reports
// how many ran. Events at or beyond the limit stay queued and the clock
// is left at the last executed event — the window primitive of the
// conservative parallel engine (the strict bound keeps merged cross-shard
// arrivals, which land at or after the horizon, ordered against local
// work).
func (e *Engine) RunBefore(limit Time) int {
	n := 0
	for len(e.queue) > 0 && e.queue[0].at < limit {
		e.Step()
		n++
	}
	return n
}

// AdvanceTo moves the clock forward to t without executing events,
// leaving it untouched if it is already at or past t or if an event
// pends at or before t (RunUntil semantics across a group of engines).
func (e *Engine) AdvanceTo(t Time) {
	if e.now >= t {
		return
	}
	if len(e.queue) > 0 && e.queue[0].at <= t {
		return
	}
	e.now = t
}

// attachSeq points the engine at a shared scheduling counter (Group
// serial mode); detachSeq returns it to its private counter, seeded past
// everything the shared counter issued.
func (e *Engine) attachSeq(c *uint64) {
	e.seqShared = c
	e.serialMax = ^uint64(0)
}

func (e *Engine) detachSeq() {
	if e.seqShared != nil {
		e.seq = *e.seqShared
		e.serialMax = e.seq
		e.seqShared = nil
	}
}

// Advance moves the clock forward by d without executing events. It panics
// if an event would be skipped; it exists for sequential (non-pipelined)
// models that account time inline between events.
func (e *Engine) Advance(d Duration) {
	t := e.now.Add(d)
	if len(e.queue) > 0 && e.queue[0].at < t {
		panic("sim: Advance would skip a pending event")
	}
	e.now = t
}
