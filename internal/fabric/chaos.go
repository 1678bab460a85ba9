package fabric

import (
	"fmt"

	"twochains/internal/mem"
	"twochains/internal/memsim"
	"twochains/internal/model"
	"twochains/internal/sim"
)

func init() {
	Register("chaos", NewChaos)
}

// MaxChaosDelay caps the per-put perturbation the chaos backend will
// accept. The wrapper defers the inner put — including its payload
// snapshot — by the drawn delay, and a sender's staging slot is only
// repacked after a credit completes the round trip (>= 2x the base
// one-way latency), so any delay at or below one base latency can never
// race a slot reuse.
var MaxChaosDelay = model.PutBaseLat

// ChaosConfig parameterizes the "chaos" backend: a failure-injection
// wrapper around any other registered backend. It perturbs put issue
// latency within declared bounds using the deployment's deterministic
// RNG (equal seeds draw equal perturbations, so chaos runs replay
// bit-identically), and can misadvertise the wrapped backend's
// lookahead to adversarially exercise the parallel engine's
// conservative windows and its lookahead-contract diagnostic.
type ChaosConfig struct {
	// Inner names the wrapped backend ("" selects the default). Wrapping
	// "chaos" in itself is rejected.
	Inner string
	// MinDelay and MaxDelay bound the extra per-put issue delay, drawn
	// uniformly from [MinDelay, MaxDelay] by a per-port split of the
	// fabric RNG. Delays are clamped monotone per destination, so the
	// in-order delivery guarantee of an ordered inner backend survives
	// perturbation. 0 <= MinDelay <= MaxDelay <= MaxChaosDelay.
	MinDelay, MaxDelay sim.Duration
	// LookaheadScale, when in (0, 1), shrinks the advertised lookahead
	// toward its proven lower bound — a legal stressor: smaller
	// conservative windows, more barriers, same results. 0 means 1.0
	// (advertise the inner bound unchanged).
	LookaheadScale float64
	// LookaheadBoost, when positive, inflates the advertised lookahead
	// beyond what the inner backend guarantees. This is a deliberate
	// contract violation: the engine group must detect the too-early
	// cross-shard arrival at the window barrier and fail loudly with its
	// diagnostic rather than corrupt state. Test-only.
	LookaheadBoost sim.Duration
}

// validate panics on a malformed config — the fabric Constructor
// signature has no error return, mirroring how NewCluster treats an
// impossible configuration as a programming error.
func (c *ChaosConfig) validate() {
	if c == nil {
		panic("fabric: chaos backend selected with nil Config.Chaos")
	}
	if c.Inner == "chaos" {
		panic("fabric: chaos backend cannot wrap itself")
	}
	if c.MinDelay < 0 || c.MaxDelay < c.MinDelay {
		panic(fmt.Sprintf("fabric: chaos: need 0 <= MinDelay <= MaxDelay, have [%v, %v]", c.MinDelay, c.MaxDelay))
	}
	if c.MaxDelay > MaxChaosDelay {
		panic(fmt.Sprintf("fabric: chaos: MaxDelay %v exceeds the staging-safe cap %v", c.MaxDelay, MaxChaosDelay))
	}
	if c.LookaheadScale < 0 || c.LookaheadScale > 1 {
		panic(fmt.Sprintf("fabric: chaos: LookaheadScale %v outside [0, 1]", c.LookaheadScale))
	}
	if c.LookaheadBoost < 0 {
		panic(fmt.Sprintf("fabric: chaos: negative LookaheadBoost %v", c.LookaheadBoost))
	}
}

// Chaos is the failure-injection wrapper transport. All memory
// registration, delivery hooks, and actual data movement delegate to
// the inner backend; the wrapper owns only the perturbation draw and
// the deferred issue of each put.
type Chaos struct {
	cfg   ChaosConfig
	inner Transport
	eng   *sim.Engine
	rng   *sim.RNG
	group *sim.Group
}

// NewChaos constructs the wrapper; it is registered as "chaos". When
// the inner backend implements ShardedTransport the returned transport
// does too, so chaos deployments keep the multi-core engine.
func NewChaos(eng *sim.Engine, cfg Config) Transport {
	cfg.Chaos.validate()
	c := *cfg.Chaos
	inner := cfg
	inner.Chaos = nil
	it, err := New(c.Inner, eng, inner)
	if err != nil {
		panic(fmt.Sprintf("fabric: chaos: %v", err))
	}
	ch := &Chaos{cfg: c, inner: it, eng: eng, rng: sim.NewRNG(cfg.Seed ^ 0x6368616f73)} // "chaos"
	if _, ok := it.(ShardedTransport); ok {
		return &chaosSharded{Chaos: ch}
	}
	return ch
}

// Inner exposes the wrapped transport (diagnostics and tests).
func (c *Chaos) Inner() Transport { return c.inner }

// Engine returns the inner backend's event clock.
func (c *Chaos) Engine() *sim.Engine { return c.inner.Engine() }

// Attach wraps the inner port with the perturbation state: a per-port
// RNG split (draws are issuer-shard-owned, so parallel runs replay) and
// the per-destination release watermarks that keep delivery order.
func (c *Chaos) Attach(as *mem.AddressSpace, hier *memsim.Hierarchy) Port {
	p := &chaosPort{
		fab:     c,
		inner:   c.inner.Attach(as, hier),
		eng:     c.eng,
		rng:     c.rng.Split(),
		release: map[Port]sim.Time{},
	}
	if c.group != nil {
		p.eng = c.group.Engine(0)
	}
	return p
}

// AssignDomain places the inner port and rebinds the wrapper's deferral
// clock to the domain's shard engine, so a deferred issue is an event
// on the shard that owns the issuing port.
func (c *Chaos) AssignDomain(p Port, domain int) {
	cp, ok := p.(*chaosPort)
	if !ok {
		return
	}
	c.inner.AssignDomain(cp.inner, domain)
	if c.group != nil {
		cp.eng = c.group.Engine(domain)
	}
}

// DomainOf reports the inner port's fabric shard.
func (c *Chaos) DomainOf(p Port) int {
	if cp, ok := p.(*chaosPort); ok {
		return c.inner.DomainOf(cp.inner)
	}
	return 0
}

// chaosSharded is the wrapper when the inner backend is sharded; the
// extra methods implement fabric.ShardedTransport.
type chaosSharded struct {
	*Chaos
}

// Lookahead returns the advertised conservative window: the inner bound
// scaled (legal stressor) and boosted (deliberate contract violation;
// see ChaosConfig). The perturbation delay itself never lowers the true
// bound — a deferred put re-anchors the inner backend's latency math at
// its release time, so arrivals only move later.
func (c *chaosSharded) Lookahead() sim.Duration {
	l := c.inner.(ShardedTransport).Lookahead()
	if s := c.cfg.LookaheadScale; s > 0 && s < 1 {
		l = sim.Duration(float64(l) * s)
	}
	l += c.cfg.LookaheadBoost
	if l < 1 {
		l = 1
	}
	return l
}

// BindGroup hands the engine group to the inner backend and keeps it
// for per-domain deferral clocks.
func (c *chaosSharded) BindGroup(g *sim.Group) {
	c.group = g
	c.eng = g.Engine(0)
	c.inner.(ShardedTransport).BindGroup(g)
}

// chaosPort wraps one inner port. Registration, hooks, and address
// space pass straight through; Put draws a delay and defers the inner
// issue; Fence defers at the current watermark so it stays ordered
// between the puts it was called between.
type chaosPort struct {
	fab   *Chaos
	inner Port
	eng   *sim.Engine
	rng   *sim.RNG
	// release clamps per-destination issue times monotone: a later put
	// that draws a smaller delay still issues no earlier than its
	// predecessor, preserving the inner backend's ordering guarantee.
	release map[Port]sim.Time
	// Delayed/DelayTotal count perturbed puts and their summed delay.
	Delayed    uint64
	DelayTotal sim.Duration
}

func (p *chaosPort) RegisterMemory(base uint64, size int, access Access) (RKey, error) {
	return p.inner.RegisterMemory(base, size, access)
}
func (p *chaosPort) Deregister(key RKey)                  { p.inner.Deregister(key) }
func (p *chaosPort) SetDeliveryHook(fn func(uint64, int)) { p.inner.SetDeliveryHook(fn) }
func (p *chaosPort) AddDeliveryHookRange(base uint64, size int, fn func(uint64, int)) {
	p.inner.AddDeliveryHookRange(base, size, fn)
}
func (p *chaosPort) AddressSpace() *mem.AddressSpace { return p.inner.AddressSpace() }
func (p *chaosPort) Label() string                   { return "chaos(" + p.inner.Label() + ")" }

// delay draws the next perturbation from the port's RNG stream.
func (p *chaosPort) delay() sim.Duration {
	min, max := p.fab.cfg.MinDelay, p.fab.cfg.MaxDelay
	if max <= min {
		return min
	}
	return min + sim.Duration(p.rng.Float64()*float64(max-min))
}

// Put perturbs then delegates: the inner put — including its payload
// snapshot and latency math — runs as a deferred event at the release
// time, on the issuing port's shard engine. The completion callback
// fires whenever the inner backend fires it, so callers observe one
// fabric that is simply slower and jitterier within declared bounds.
func (p *chaosPort) Put(dst Port, srcVA, dstVA uint64, size int, key RKey, onComplete func(PutResult)) {
	d, ok := dst.(*chaosPort)
	if !ok {
		p.eng.After(0, func() {
			if onComplete != nil {
				onComplete(PutResult{Err: fmt.Errorf("fabric: chaos: destination %s is not a chaos port", dst.Label())})
			}
		})
		return
	}
	delta := p.delay()
	release := p.eng.Now().Add(delta)
	if last := p.release[dst]; release < last {
		release = last
	}
	p.release[dst] = release
	if delta > 0 {
		p.Delayed++
		p.DelayTotal += delta
	}
	if release == p.eng.Now() {
		p.inner.Put(d.inner, srcVA, dstVA, size, key, onComplete)
		return
	}
	p.eng.At(release, func() {
		p.inner.Put(d.inner, srcVA, dstVA, size, key, onComplete)
	})
}

// Fence defers the inner fence to the destination's release watermark:
// every already-perturbed put issues first (equal-time events run in
// scheduling order), every later put releases at or after it.
func (p *chaosPort) Fence(dst Port) {
	d, ok := dst.(*chaosPort)
	if !ok {
		return
	}
	wm := p.release[dst]
	if wm <= p.eng.Now() {
		p.inner.Fence(d.inner)
		return
	}
	p.eng.At(wm, func() { p.inner.Fence(d.inner) })
}
