package tc

import (
	"fmt"

	"twochains/internal/core"
	"twochains/internal/mailbox"
	"twochains/internal/sim"
	"twochains/internal/tenant"
)

// Func is a pre-resolved function handle: the element is validated on the
// source node when the handle is created, and per destination the
// travelling image (Injected Function) or the receiver-side IDs (Local
// Function) are bound once, on first Call. Subsequent Calls perform no
// string resolution — the bind-once/call-many idiom.
type Func struct {
	sys       *System
	src       int
	pkg, elem string
	bounds    []*core.Bound // indexed by destination node
	// ten is the owning tenant of a FuncFor handle (nil for base
	// handles): its calls route over the tenant's namespace-view channels
	// and pass its admission control.
	ten *tenant.Tenant
}

// Func returns a handle for the named element, sent from node src. The
// element must be installed on src as a jam; unknown packages or elements
// fail here, not at call time.
func (s *System) Func(src int, pkg, elem string) (*Func, error) {
	return s.newFunc(nil, src, pkg, elem)
}

// newFunc resolves a handle for elem of pkg as installed on src: the
// base install, or tenant t's when t is not nil.
func (s *System) newFunc(t *tenant.Tenant, src int, pkg, elem string) (*Func, error) {
	if src < 0 || src >= s.Nodes() {
		return nil, fmt.Errorf("tc: func: source node %d out of range (%d nodes)", src, s.Nodes())
	}
	q := pkg
	if t != nil {
		q = tenant.Qualified(t.Name, pkg)
	}
	inst, ok := s.Node(src).Package(q)
	if !ok {
		owner := ""
		if t != nil {
			owner = fmt.Sprintf(" for tenant %q", t.Name)
		}
		return nil, fmt.Errorf("tc: func: package %q not installed%s on node %d", pkg, owner, src)
	}
	e, ok := inst.Pkg.Element(elem)
	if !ok {
		return nil, fmt.Errorf("tc: func: no element %q in package %q", elem, pkg)
	}
	if e.Kind != core.ElemJam {
		return nil, fmt.Errorf("tc: func: element %q in package %q is a %s, not a jam", elem, pkg, e.Kind)
	}
	return &Func{sys: s, src: src, pkg: q, elem: elem, ten: t,
		bounds: make([]*core.Bound, s.Nodes())}, nil
}

// bound returns the per-destination handle, creating the channel (and its
// mailbox region) on first use. A FuncFor handle's channels belong to its
// tenant's namespace view.
func (f *Func) bound(dst int) (*core.Bound, error) {
	if dst >= 0 && dst < len(f.bounds) {
		// A cached handle on a channel severed by FailNode is stale: the
		// rejoined node gets fresh channels, so drop it and re-resolve
		// through the mesh (which refuses while the node is still down).
		if b := f.bounds[dst]; b != nil && !b.Channel().Dead() {
			return b, nil
		}
	}
	var ch *core.Channel
	var err error
	if f.ten != nil {
		ch, err = f.sys.viewChannel(f.src, dst, f.ten)
	} else {
		ch, err = f.sys.Channel(f.src, dst)
	}
	if err != nil {
		return nil, err
	}
	b := ch.Handle(f.pkg, f.elem)
	f.bounds[dst] = b
	return b, nil
}

// callCfg collects the call options.
type callCfg struct {
	local    bool
	usr      []byte
	burst    bool
	batch    [][2]uint64
	hasRetry bool
	retry    RetryPolicy
}

// Call option kinds.
const (
	optLocal = iota + 1
	optPayload
	optBurst
	optRetry
)

// CallOpt adjusts one Call. Options are small immutable values, not
// closures: constructing them at the call site allocates nothing, so the
// steady-state Call path stays allocation-free without hoisting.
type CallOpt struct {
	kind  uint8
	usr   []byte
	batch [][2]uint64
	retry RetryPolicy
}

// Local selects Local Function invocation: only IDs and payload travel,
// and the receiver calls its library copy of the function. The default is
// Injected Function (the code travels in the frame).
func Local() CallOpt {
	return CallOpt{kind: optLocal}
}

// Payload attaches the user data payload.
func Payload(usr []byte) CallOpt {
	return CallOpt{kind: optPayload, usr: usr}
}

// Burst sends the whole batch — one message per args entry — as a single
// batched operation: the mailbox sender coalesces contiguous frame slots
// into single puts. The batch replaces Call's single args argument; an
// empty (or nil) batch sends nothing and resolves immediately.
func Burst(batch [][2]uint64) CallOpt {
	return CallOpt{kind: optBurst, batch: batch}
}

// WithRetry arms issuer-side resilience on the call: a retryable issue
// failure — the destination torn down or severed by a node failure
// (*core.NodeDownError), or a deferred tenant admission
// (*tenant.AdmissionError with Deferred) — is re-attempted under the
// policy, with deterministic sim-time backoff. A deferred admission's
// RetryAfter floors the backoff, so the two retry sources compose. When
// the policy is exhausted the future resolves with a *RetryError
// (wrapping the last attempt's error), readable via Future.IssueErr.
func WithRetry(p RetryPolicy) CallOpt {
	return CallOpt{kind: optRetry, retry: p}
}

// apply folds the option into the collected configuration.
func (o CallOpt) apply(c *callCfg) {
	switch o.kind {
	case optLocal:
		c.local = true
	case optPayload:
		c.usr = o.usr
	case optBurst:
		c.burst, c.batch = true, o.batch
	case optRetry:
		c.hasRetry, c.retry = true, o.retry
	}
}

// Call sends the function to node dst and returns a Future that resolves
// when every message of the call has been delivered. Errors — unknown
// destination, unresolvable symbols, torn-down receiver — surface on the
// returned future (already resolved), never as a lost callback.
//
// Futures are pooled: a fire-and-forget Call (result discarded, no Done,
// no Await) recycles its future automatically when it resolves during the
// simulation, so the steady-state call path allocates nothing. See Future
// for the ownership rules.
func (f *Func) Call(dst int, args [2]uint64, opts ...CallOpt) *Future {
	var cfg callCfg
	for _, o := range opts {
		o.apply(&cfg)
	}
	n := 1
	if cfg.burst {
		n = len(cfg.batch)
	}
	fu := f.sys.newFuture(n)
	if n == 0 {
		fu.resolve()
		return fu
	}
	if cfg.hasRetry {
		f.issueRetry(fu, dst, args, cfg, 0, 0)
		return fu
	}
	if err := f.issueOnce(fu, dst, args, &cfg); err != nil {
		fu.fail(err)
		return fu
	}
	// Armed: the call is in flight and resolution will happen inside the
	// engine — the point where an unobserved future can recycle safely.
	fu.armed = true
	return fu
}

// issueOnce performs one issue attempt: resolve the per-destination
// handle, pass admission, dispatch. nil means the call is in flight and
// the future will resolve inside the engine.
func (f *Func) issueOnce(fu *Future, dst int, args [2]uint64, cfg *callCfg) error {
	b, err := f.bound(dst)
	if err != nil {
		return err
	}
	if ten := f.ten; ten != nil && ten.Admission != nil {
		if dec := ten.Admit(f.src, f.sys.Now(), fu.expect); !dec.OK {
			return ten.Reject(dec)
		}
	}
	if cfg.burst {
		return b.Send(cfg.local, cfg.usr, fu.infoCb, cfg.batch...)
	}
	return b.Send(cfg.local, cfg.usr, fu.infoCb, args)
}

// issueRetry drives the WithRetry attempt loop: each retryable failure
// schedules the next attempt after the policy's backoff (floored by a
// deferred admission's RetryAfter) on the simulated clock, so retried
// calls replay deterministically. Exhaustion resolves the future with a
// *RetryError surfaced via Future.IssueErr.
func (f *Func) issueRetry(fu *Future, dst int, args [2]uint64, cfg callCfg, attempt int, elapsed sim.Duration) {
	err := f.issueOnce(fu, dst, args, &cfg)
	if err == nil {
		fu.armed = true
		return
	}
	retry, after := retryable(err)
	attempts := cfg.retry.Attempts
	if attempts < 1 {
		attempts = 1
	}
	if !retry || attempt+1 >= attempts {
		if attempt > 0 || retry {
			err = &RetryError{Attempts: attempt + 1, Elapsed: elapsed, Last: err}
		}
		fu.fail(err)
		return
	}
	delay := cfg.retry.delay(attempt)
	if after > delay {
		delay = after
	}
	// Resolution now happens inside the engine: mark the future armed so
	// an unobserved fire-and-forget call still recycles when it resolves.
	fu.armed = true
	f.sys.Engine().After(delay, func() {
		f.issueRetry(fu, dst, args, cfg, attempt+1, elapsed+delay)
	})
}

// Result aggregates the outcome of one Call.
type Result struct {
	// N counts delivered messages (1 for a single call, the batch size
	// for a burst).
	N int
	// Err is the first error observed, if any.
	Err error
	// Seq is the mailbox sequence number of the call's first message.
	Seq uint32
	// Delivered is the latest receiver-side delivery time. Handler
	// execution happens after delivery; observe it via Node.OnExecuted.
	Delivered sim.Time
}

// Future is the completion handle of one Call. It resolves exactly once,
// on the shared discrete-event engine — there is no wall-clock waiting
// and no concurrency; Await replays deterministically for a fixed seed.
//
// Futures are pooled per System. The ownership rules:
//
//   - A future that is never observed — no Done, no Await before it
//     resolves — returns to the pool automatically the moment
//     it resolves inside the simulation. Fire-and-forget callers
//     (Call(...).IssueErr(), or discarding the return entirely) therefore
//     never allocate and never need to clean up, but must not touch the
//     future after running the simulation.
//   - Registering a Done callback or calling Await marks the future
//     observed: it stays valid indefinitely and is simply garbage
//     collected, exactly like the pre-pooling behaviour. Callers that poll
//     Result after sys.Run() must observe the future first.
//   - Release hands an observed future back to the pool once the caller
//     is done with it (safe from inside its own Done callback). After
//     Release the future must not be touched.
type Future struct {
	sys      *System
	expect   int
	resolved bool
	observed bool // Done/Await seen: caller keeps the handle
	armed    bool // in flight; resolution happens inside the engine
	released bool // caller opted back into recycling
	free     bool // currently in the pool (reuse/double-release guard)
	res      Result
	cbs      []func(Result)
	// infoCb is the prebound completion adapter, created once per pooled
	// future and reused across generations, so issuing a call allocates
	// no closures.
	infoCb func(mailbox.SendInfo)
}

// newFuture takes a future from the pool (or mints one with its prebound
// adapters) and resets it for a call expecting n completions.
func (s *System) newFuture(expect int) *Future {
	var fu *Future
	if n := len(s.futures); n > 0 {
		fu = s.futures[n-1]
		s.futures[n-1] = nil
		s.futures = s.futures[:n-1]
	} else {
		fu = &Future{sys: s}
		fu.infoCb = fu.completeInfo
	}
	fu.expect = expect
	fu.resolved, fu.observed, fu.armed, fu.released, fu.free = false, false, false, false, false
	fu.res = Result{}
	fu.cbs = fu.cbs[:0]
	return fu
}

// recycle returns the future to its system's pool.
func (fu *Future) recycle() {
	if fu.free {
		return
	}
	fu.free = true
	fu.sys.futures = append(fu.sys.futures, fu)
}

// completeInfo folds one mailbox-level completion into the aggregate.
func (fu *Future) completeInfo(info mailbox.SendInfo) {
	if fu.resolved {
		return
	}
	fu.res.N++
	if fu.res.Seq == 0 {
		fu.res.Seq = info.Seq
	}
	if info.Err != nil && fu.res.Err == nil {
		fu.res.Err = info.Err
	}
	if info.Delivered > fu.res.Delivered {
		fu.res.Delivered = info.Delivered
	}
	if fu.res.N >= fu.expect {
		fu.resolve()
	}
}

func (fu *Future) fail(err error) {
	if fu.resolved {
		return
	}
	fu.res.Err = err
	fu.resolve()
}

func (fu *Future) resolve() {
	fu.resolved = true
	// Callbacks may append more via Done-after-resolve semantics only
	// directly (Done invokes immediately once resolved), so iterating the
	// current list is complete.
	for i := range fu.cbs {
		fu.cbs[i](fu.res)
		fu.cbs[i] = nil
	}
	fu.cbs = fu.cbs[:0]
	if fu.armed && (!fu.observed || fu.released) {
		// Nobody is holding this future (or the holder released it):
		// hand it back to the pool.
		fu.recycle()
	}
}

// Release hands the future back to the pool: the caller promises not to
// touch it again. Unresolved futures release when they resolve (their
// Done callbacks still run first); resolved ones recycle immediately.
// Releasing is optional — an unreleased observed future is simply
// garbage collected.
func (fu *Future) Release() {
	fu.released = true
	if fu.resolved {
		fu.recycle()
	}
}

// IssueErr reports a synchronous issue failure: the call resolved before
// any message went out (unknown destination, unresolvable symbol,
// torn-down receiver). Delivery-time errors of an in-flight call are not
// issue errors; read them from the resolved Result.
func (fu *Future) IssueErr() error {
	if fu.resolved && fu.res.N == 0 {
		return fu.res.Err
	}
	return nil
}

// Result returns the aggregate outcome; ok is false while unresolved.
func (fu *Future) Result() (res Result, ok bool) { return fu.res, fu.resolved }

// Done registers cb to run when the future resolves (immediately if it
// already has). Registering a callback observes the future — it stays out
// of the pool until Release. It returns the future for chaining.
func (fu *Future) Done(cb func(Result)) *Future {
	if cb == nil {
		return fu
	}
	if fu.resolved {
		cb(fu.res)
		return fu
	}
	fu.observed = true
	fu.cbs = append(fu.cbs, cb)
	return fu
}

// Await single-steps the simulation engine until the future resolves and
// returns the aggregate result. It is deterministic: equal seeds replay
// equal outcomes. If the simulation goes quiescent first (a lost credit,
// a stopped receiver), Await reports it as an error instead of spinning.
// Awaiting observes the future: it stays valid (and poolable only via
// Release) after Await returns.
func (fu *Future) Await() (Result, error) {
	fu.observed = true
	for !fu.resolved {
		if !fu.sys.Engine().Step() {
			return fu.res, fmt.Errorf("tc: await: simulation quiescent with future unresolved (%d/%d messages)",
				fu.res.N, fu.expect)
		}
	}
	return fu.res, fu.res.Err
}
