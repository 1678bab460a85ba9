package sim

import "fmt"

// event is one scheduled callback, stored by value in the engine's queue.
// Events with equal times fire FIFO by sequence number — the order they
// were scheduled in, whoever scheduled them.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// less is the queue's strict total order, (at, seq). seq is unique, so
// two distinct events are never equal and any heap shape pops them in
// exactly one order.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
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
// (over four adjacent 24-byte events) for fewer levels touched
// per operation.
type Engine struct {
	now    Time
	queue  []event
	seq    uint64
	nSteps uint64
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
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled in the past: %d < now %d", t, e.now))
	}
	e.seq++
	ev := event{at: t, seq: e.seq, fn: fn}
	q := append(e.queue, ev)
	// Sift up: move the hole toward the root until the parent sorts first.
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !less(&ev, &q[p]) {
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

// pop removes the earliest event and returns the two fields Step needs.
// The vacated tail slot is zeroed so the queue does not pin the popped
// closure; the slice capacity is retained and reused by subsequent pushes.
func (e *Engine) pop() (at Time, fn func()) {
	q := e.queue
	n := len(q) - 1
	at, fn = q[0].at, q[0].fn
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
				if less(&q[j], &q[m]) {
					m = j
				}
			}
			if !less(&q[m], &last) {
				break
			}
			q[i] = q[m]
			i = m
		}
		q[i] = last
	}
	e.queue = q
	return at, fn
}

// Step executes the single earliest pending event, advancing the clock.
// It reports whether an event was executed.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	at, fn := e.pop()
	e.now = at
	e.nSteps++
	fn()
	return true
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}
