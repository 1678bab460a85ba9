package mailbox

import (
	"fmt"

	"twochains/internal/cpusim"
	"twochains/internal/fabric"
	"twochains/internal/mem"
	"twochains/internal/memsim"
	"twochains/internal/model"
	"twochains/internal/sim"
	"twochains/internal/ucx"
)

// Handler executes one delivered message and returns the simulated
// execution cost (zero for without-execution runs). The Two-Chains core
// runtime supplies a handler that dispatches to the VM.
type Handler func(d *Delivery) (sim.Duration, error)

// ReceiverConfig selects mailbox behaviour. The zero value beyond
// Geometry is the paper's measurement configuration: fixed frames,
// polling wait, no credits, sender-set GOT pointer.
type ReceiverConfig struct {
	Geometry Geometry
	WaitMode cpusim.WaitMode
	// Credits enables bank-granular flow control: after draining a bank
	// the receiver puts a flag back to the sender. Ping-pong shapes
	// disable it (the response message is the implicit credit).
	Credits bool
	// VariableFrames models the variable-size frame protocol: the
	// receiver waits on the header first, computes the frame length, then
	// waits on the trailing signal — a second wait episode per message.
	VariableFrames bool
	// InsertGp makes the receiver overwrite the GOT pointer slot on
	// arrival instead of trusting the sender's value (paper §V security
	// option: "have the receiver insert the GOT pointer on message
	// arrival").
	InsertGp bool
	// Arbiter, when set, enrolls the receiver in its node's weighted-fair
	// service arbiter under class ArbClass: a ready frame queues with the
	// arbiter instead of starting service immediately, so concurrent
	// classes share the node's service capacity by weight.
	Arbiter  *FairArbiter
	ArbClass int
	// IsolationCost is charged per executed message on top of dispatch —
	// the per-invocation isolation boundary for untrusted tenant jams
	// (model.TenantIsolationCost is the calibrated knob).
	IsolationCost sim.Duration
}

// Receiver owns a node's mailbox region and its reactive receive loop.
type Receiver struct {
	Cfg     ReceiverConfig
	Worker  *ucx.Worker
	Counter *cpusim.Counter
	Handler Handler

	BaseVA uint64
	Key    fabric.RKey

	// OnProcessed observes completed messages (benchmark hook). The
	// Delivery is the receiver's scratch record: valid only during the
	// callback, overwritten by the next frame.
	OnProcessed func(d *Delivery, completed sim.Time)
	// OnError observes handler failures; d may be nil (parse failure) and
	// has the same scratch lifetime as OnProcessed's.
	OnError func(d *Delivery, err error)

	creditEp  *ucx.Endpoint
	creditVA  uint64
	creditKey fabric.RKey
	// creditPuts holds each bank's credit-return put, built at the first
	// return. A bank's next return follows the sender's next claim of it,
	// so its record is never posted twice at once.
	creditPuts []ucx.ThinPut

	eng       *sim.Engine
	nextSeq   uint32
	busy      bool
	started   bool
	waitStart sim.Time
	// Processed counts the frames the loop consumed, Errors the ones whose
	// parse or handler failed.
	Processed uint64
	Errors    uint64

	// One message is in service at a time (busy), so the receive loop
	// runs on a single scratch Delivery and two prebound event closures
	// instead of allocating per message. The Delivery handed to Handler,
	// OnProcessed, and OnError is this scratch record: it is valid only
	// for the duration of the callback and is overwritten by the next
	// frame — observers that need it longer must copy it.
	scratchD   Delivery
	serviceVA  uint64
	serviceFn  func() // prebound: service(serviceVA)
	completeD  *Delivery
	completeAt sim.Time
	completeFn func() // prebound: complete(completeD, completeAt)
	// arbWake is the wake latency computed at frame detection, replayed
	// when the arbiter grants service (an ungated grant pays it exactly
	// once, identically to the non-arbitrated path).
	arbWake sim.Duration
}

// NewReceiver allocates and registers the mailbox region on w's node and
// hooks the NIC delivery path.
func NewReceiver(w *ucx.Worker, cfg ReceiverConfig, counter *cpusim.Counter, handler Handler) (*Receiver, error) {
	if err := cfg.Geometry.Validate(); err != nil {
		return nil, err
	}
	// The paper's compact layout: frames execute in place, so mailbox
	// pages are RWX.
	base, err := w.AS.AllocPages("mailboxes", cfg.Geometry.RegionSize(), mem.PermRWX)
	if err != nil {
		return nil, err
	}
	key, err := w.RegisterMemory(base, cfg.Geometry.RegionSize(), fabric.RemoteWrite)
	if err != nil {
		return nil, err
	}
	r := &Receiver{
		Cfg:     cfg,
		Worker:  w,
		Counter: counter,
		Handler: handler,
		BaseVA:  base,
		Key:     key,
		eng:     w.Eng,
		nextSeq: 1,
	}
	r.serviceFn = func() { r.service(r.serviceVA) }
	r.completeFn = func() { r.complete(r.completeD, r.completeAt) }
	w.NIC.AddDeliveryHookRange(base, cfg.Geometry.RegionSize(),
		func(va uint64, size int) { r.poke() })
	return r, nil
}

// SetCreditReturn wires the credit path back to the sender: ep must be an
// endpoint from this node to the sender, and (va, key) the sender's credit
// flag array.
func (r *Receiver) SetCreditReturn(ep *ucx.Endpoint, va uint64, key fabric.RKey) {
	r.creditEp = ep
	r.creditVA = va
	r.creditKey = key
}

// Start arms the receive loop; the wait clock for the first message
// starts now.
func (r *Receiver) Start() {
	r.started = true
	r.waitStart = r.eng.Now()
	r.poke()
}

// Stop disarms the receive loop: frames already landed (or still in
// flight) stay in the region but are no longer serviced, and a service
// or completion event already scheduled when Stop runs is quashed when
// it fires (see the started gates in service/complete) — after Stop, no
// handler runs and no credit returns to the sender. Part of node
// teardown; a stopped receiver can be re-armed with Start.
func (r *Receiver) Stop() { r.started = false }

func (r *Receiver) frameVA(seq uint32) uint64 {
	_, _, off := r.Cfg.Geometry.SlotFor(seq)
	return r.BaseVA + off
}

// poke checks whether the awaited frame is complete and starts service.
// It is invoked by the NIC delivery hook and after each completed message.
func (r *Receiver) poke() {
	if !r.started || r.busy {
		return
	}
	va := r.frameVA(r.nextSeq)
	if !SigPresent(r.Worker.AS, va, r.Cfg.Geometry.FrameSize, r.nextSeq) {
		return
	}
	// Signal observed: account the wait episode and wake up.
	waited := r.eng.Now().Sub(r.waitStart)
	var wake sim.Duration
	if r.Counter != nil {
		wake = r.Counter.Wait(r.Cfg.WaitMode, waited)
	} else {
		wake = model.PollDetectLat
	}
	r.busy = true
	r.serviceVA = va
	if r.Cfg.Arbiter != nil {
		// Fair-queued path: the frame is ready but service waits for the
		// arbiter's grant; the wake latency is paid at grant time.
		r.arbWake = wake
		r.Cfg.Arbiter.enqueue(r.Cfg.ArbClass, r)
		return
	}
	r.eng.After(wake, r.serviceFn)
}

// granted starts the service the arbiter just granted.
func (r *Receiver) granted() {
	r.eng.After(r.arbWake, r.serviceFn)
}

// yieldGrant hands the node back to the arbiter when a granted service
// is quashed by Stop: the grant would otherwise stay outstanding forever,
// and receivers enrolled after a rejoin would never be served.
func (r *Receiver) yieldGrant() {
	if r.Cfg.Arbiter != nil {
		r.Cfg.Arbiter.done()
	}
}

// service parses, optionally patches, and executes the frame at va, then
// advances to the next slot.
func (r *Receiver) service(va uint64) {
	if !r.started {
		// Stopped (node teardown) after this service was scheduled: the
		// frame stays in the region unserviced, so fail-time loss
		// accounting (issued minus executed) sees it as lost, exactly.
		r.busy = false
		r.yieldGrant()
		return
	}
	now := r.eng.Now()
	serviceCost := model.FrameParseOverhead
	// Header and signal reads go through the cache hierarchy: this is
	// where stashing first pays off.
	if r.Worker.Hier != nil {
		serviceCost += r.Worker.Hier.Access(va, HeaderSize, memsim.Read)
		serviceCost += r.Worker.Hier.Access(va+uint64(r.Cfg.Geometry.FrameSize)-8, 8, memsim.Read)
	}
	if r.Cfg.VariableFrames {
		// Second wait episode: header first, then the trailing signal.
		if r.Counter != nil {
			serviceCost += r.Counter.Wait(r.Cfg.WaitMode, 0)
		} else {
			serviceCost += model.PollDetectLat
		}
	}

	d := &r.scratchD
	if err := ParseFrameInto(d, r.Worker.AS, va, r.Cfg.Geometry.FrameSize); err != nil {
		r.fail(nil, fmt.Errorf("mailbox: receiver: %w", err), serviceCost)
		return
	}
	if d.Seq != r.nextSeq {
		r.fail(d, fmt.Errorf("mailbox: sequence mismatch: frame %d, expected %d", d.Seq, r.nextSeq), serviceCost)
		return
	}
	if d.Kind == KindInjected && r.Cfg.InsertGp {
		// Security mode: overwrite the travelling GOT pointer with the
		// receiver-computed value instead of trusting the sender.
		if err := r.Worker.AS.WriteU64(d.GpSlotVA, d.GotVA); err != nil {
			r.fail(d, err, serviceCost)
			return
		}
		serviceCost += model.GOTPatchPerEntry
	}
	serviceCost += model.HandlerDispatchLat

	if d.Kind != KindData && r.Handler != nil {
		// Untrusted-tenant isolation boundary: priced per invocation,
		// before the handler runs.
		serviceCost += r.Cfg.IsolationCost
		execCost, err := r.Handler(d)
		serviceCost += execCost
		if err != nil {
			r.fail(d, err, serviceCost)
			return
		}
	}
	if r.Counter != nil {
		r.Counter.Work(serviceCost)
	}
	r.completeD, r.completeAt = d, now.Add(serviceCost)
	r.eng.After(serviceCost, r.completeFn)
}

// fail records an error, still consuming the frame so the loop advances.
func (r *Receiver) fail(d *Delivery, err error, serviceCost sim.Duration) {
	r.Errors++
	if r.OnError != nil {
		r.OnError(d, err)
	}
	//tclint:allow scratchescape the receiver owns the scratch record; completeFn runs before the next frame is parsed into it
	r.completeD, r.completeAt = d, r.eng.Now().Add(serviceCost)
	r.eng.After(serviceCost, r.completeFn)
}

func (r *Receiver) complete(d *Delivery, t sim.Time) {
	if !r.started {
		// Stopped mid-service: the execution already happened (the handler
		// ran inside service), but no credit goes back to a sender from a
		// torn-down node and the loop does not advance.
		r.yieldGrant()
		return
	}
	r.Processed++
	seq := r.nextSeq
	bank, slot, _ := r.Cfg.Geometry.SlotFor(seq)
	r.nextSeq++
	r.busy = false

	if r.Cfg.Credits && slot == r.Cfg.Geometry.Slots-1 && r.creditEp != nil {
		// Bank drained: return its credit to the sender.
		p := r.creditPut(bank)
		one := [8]byte{1}
		if err := r.Worker.AS.WriteBytes(p.SrcVA, one[:]); err == nil {
			r.creditEp.PutThin(p)
		}
	}
	if r.OnProcessed != nil && d != nil {
		r.OnProcessed(d, t)
	}
	// Immediately serve the next frame if it already arrived; otherwise
	// re-arm the wait clock.
	r.waitStart = r.eng.Now()
	if r.Cfg.Arbiter != nil {
		// Queue our own next frame first (enqueue is a no-op start while
		// the arbiter is busy), then hand the node back: the arbiter must
		// see this class's remaining backlog when it picks the next grant,
		// or a backlogged class degenerates to plain round-robin.
		r.poke()
		r.Cfg.Arbiter.done()
		return
	}
	r.poke()
}

// creditPut returns bank's credit-return put. The first call builds the
// records and allocates their 8-byte source word a slot of its own.
func (r *Receiver) creditPut(bank int) *ucx.ThinPut {
	if r.creditPuts == nil {
		va, err := r.Worker.AS.Alloc("mailbox-credit-scratch", 8, 8, mem.PermRW)
		if err != nil {
			// Fall back to the region base; this is diagnostic-only state.
			va = r.BaseVA
		}
		r.creditPuts = make([]ucx.ThinPut, r.Cfg.Geometry.Banks)
		for b := range r.creditPuts {
			r.creditPuts[b] = ucx.ThinPut{SrcVA: va, DstVA: r.creditVA + uint64(b*8), Size: 8, Key: r.creditKey}
		}
	}
	return &r.creditPuts[bank]
}
