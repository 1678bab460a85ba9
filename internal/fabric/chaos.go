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
// bit-identically).
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
}

// validate panics on a malformed config — the fabric Constructor
// signature has no error return, so an impossible configuration is a
// programming error. core.NewMesh refuses an unregistered Inner first.
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
}

// NewChaos constructs the wrapper; it is registered as "chaos".
func NewChaos(eng *sim.Engine, cfg Config) Transport {
	cfg.Chaos.validate()
	c := *cfg.Chaos
	inner := cfg
	inner.Chaos = nil
	it, err := New(c.Inner, eng, inner)
	if err != nil {
		panic(fmt.Sprintf("fabric: chaos: %v", err))
	}
	return &Chaos{cfg: c, inner: it, eng: eng, rng: sim.NewRNG(cfg.Seed ^ 0x6368616f73)} // "chaos"
}

// Inner exposes the wrapped transport (diagnostics and tests).
func (c *Chaos) Inner() Transport { return c.inner }

// Engine returns the inner backend's event clock.
func (c *Chaos) Engine() *sim.Engine { return c.inner.Engine() }

// Attach wraps the inner port with the perturbation state: a per-port
// RNG split (a port's draws depend only on its own issue sequence) and
// the per-destination release watermarks that keep delivery order.
func (c *Chaos) Attach(as *mem.AddressSpace, hier *memsim.Hierarchy) Port {
	return &chaosPort{
		fab:     c,
		inner:   c.inner.Attach(as, hier),
		rng:     c.rng.Split(),
		release: map[Port]sim.Time{},
	}
}

// AssignDomain places the inner port.
func (c *Chaos) AssignDomain(p Port, domain int) {
	if cp, ok := p.(*chaosPort); ok {
		c.inner.AssignDomain(cp.inner, domain)
	}
}

// DomainOf reports the inner port's fabric shard.
func (c *Chaos) DomainOf(p Port) int {
	if cp, ok := p.(*chaosPort); ok {
		return c.inner.DomainOf(cp.inner)
	}
	return 0
}

// chaosPort wraps one inner port. Registration, hooks, and address
// space pass straight through; Put draws a delay and defers the inner
// issue; Fence defers at the current watermark so it stays ordered
// between the puts it was called between.
type chaosPort struct {
	fab   *Chaos
	inner Port
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
// time. The completion callback fires whenever the inner backend fires
// it, so callers observe one fabric that is simply slower and jitterier
// within declared bounds.
func (p *chaosPort) Put(dst Port, srcVA, dstVA uint64, size int, key RKey, onComplete func(PutResult)) {
	d, ok := dst.(*chaosPort)
	if !ok {
		p.fab.eng.After(0, func() {
			if onComplete != nil {
				onComplete(PutResult{Err: fmt.Errorf("fabric: chaos: destination %s is not a chaos port", dst.Label())})
			}
		})
		return
	}
	delta := p.delay()
	release := p.fab.eng.Now().Add(delta)
	if last := p.release[dst]; release < last {
		release = last
	}
	p.release[dst] = release
	if delta > 0 {
		p.Delayed++
		p.DelayTotal += delta
	}
	if release == p.fab.eng.Now() {
		p.inner.Put(d.inner, srcVA, dstVA, size, key, onComplete)
		return
	}
	p.fab.eng.At(release, func() {
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
	if wm <= p.fab.eng.Now() {
		p.inner.Fence(d.inner)
		return
	}
	p.fab.eng.At(wm, func() { p.inner.Fence(d.inner) })
}
