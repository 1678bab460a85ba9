package mailbox

// FairArbiter is a weighted deficit-round-robin service arbiter over the
// receivers of one node. Receivers enrolled in the arbiter (via
// ReceiverConfig.Arbiter/ArbClass) do not start service the moment a
// frame lands; they queue with the arbiter, which grants service one
// frame at a time, giving each class a quantum of grants proportional to
// its weight per round. While several classes are backlogged each gets
// its weight share of the node's service capacity; an idle class's turn
// is skipped (the arbiter is work-conserving), so a burst from one class
// cannot starve another's drain, and spare capacity is never wasted.
//
// Every method is invoked from receiver events (frame delivery, service
// completion) of the receiving node.
type FairArbiter struct {
	classes []arbClass
	cursor  int
	queued  int
	busy    bool
}

// arbClass is one tenant class: its DRR weight, the remaining quantum of
// the current round, and the FIFO of receivers with a frame waiting.
type arbClass struct {
	weight  int
	deficit int
	q       []*Receiver
	head    int
}

// NewFairArbiter returns an empty arbiter; add classes before enrolling
// receivers.
func NewFairArbiter() *FairArbiter { return &FairArbiter{} }

// AddClass registers a service class with the given weight (>= 1) and
// returns its dense class index.
func (a *FairArbiter) AddClass(weight int) int {
	if weight < 1 {
		weight = 1
	}
	a.classes = append(a.classes, arbClass{weight: weight})
	if len(a.classes) == 1 {
		a.classes[0].deficit = weight
	}
	return len(a.classes) - 1
}

// enqueue queues a receiver with a ready frame under its class and
// dispatches if the node is idle. Called from Receiver.poke.
func (a *FairArbiter) enqueue(class int, r *Receiver) {
	c := &a.classes[class]
	c.q = append(c.q, r)
	a.queued++
	a.dispatch()
}

// done reports a completed service and hands the node to the next
// granted receiver. Called from Receiver.complete.
func (a *FairArbiter) done() {
	a.busy = false
	a.dispatch()
}

// dispatch grants the node to the next receiver under DRR order: the
// cursor class spends its deficit one frame per grant; an exhausted or
// idle class passes the cursor on, refreshing the next class's quantum.
func (a *FairArbiter) dispatch() {
	if a.busy {
		return
	}
	for a.queued > 0 {
		c := &a.classes[a.cursor]
		if c.deficit > 0 && c.head < len(c.q) {
			r := c.q[c.head]
			c.q[c.head] = nil
			c.head++
			if c.head == len(c.q) {
				c.q, c.head = c.q[:0], 0
			}
			c.deficit--
			a.queued--
			if !r.started {
				// The receiver was stopped while queued (node teardown):
				// skip the grant and keep dispatching.
				continue
			}
			a.busy = true
			r.granted()
			return
		}
		a.cursor++
		if a.cursor == len(a.classes) {
			a.cursor = 0
		}
		a.classes[a.cursor].deficit = a.classes[a.cursor].weight
	}
}
