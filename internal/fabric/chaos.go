package fabric

import (
	"fmt"

	"twochains/internal/mem"
	"twochains/internal/memsim"
	"twochains/internal/model"
	"twochains/internal/sim"
)

// MaxChaosDelay caps the per-put perturbation the chaos backend will
// accept. The wrapper defers the inner put — including its payload
// snapshot — by the drawn delay, and a sender's staging slot is only
// repacked after a credit completes the round trip (>= 2x the base
// one-way latency), so any delay at or below one base latency can never
// race a slot reuse.
var MaxChaosDelay = model.PutBaseLat

// ChaosConfig parameterizes the "chaos" backend: a failure-injection
// wrapper around another backend. It perturbs put issue latency within
// declared bounds using the deployment's deterministic RNG (equal seeds
// draw equal perturbations, so chaos runs replay bit-identically).
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

// Validate reports a malformed config as an error: a nil config, a
// self-wrapping Inner, or delay bounds outside
// 0 <= MinDelay <= MaxDelay <= MaxChaosDelay. core.NewMesh calls it before
// it builds the inner backend, whose build refuses an unknown Inner.
func (c *ChaosConfig) Validate() error {
	switch {
	case c == nil:
		return fmt.Errorf(`fabric: the "chaos" backend needs a ChaosConfig`)
	case c.Inner == "chaos":
		return fmt.Errorf("fabric: chaos backend cannot wrap itself")
	case c.MinDelay < 0 || c.MaxDelay < c.MinDelay:
		return fmt.Errorf("fabric: chaos: need 0 <= MinDelay <= MaxDelay, have [%dps, %dps]", c.MinDelay, c.MaxDelay)
	case c.MaxDelay > MaxChaosDelay:
		return fmt.Errorf("fabric: chaos: MaxDelay %dps exceeds the staging-safe cap %dps", c.MaxDelay, MaxChaosDelay)
	}
	return nil
}

// Chaos is the failure-injection wrapper transport. Memory registration,
// delivery hooks and the actual data movement delegate to the inner
// backend; the wrapper owns only the perturbation draw and the deferred
// issue of each put.
type Chaos struct {
	cfg   ChaosConfig
	inner Transport
	eng   *sim.Engine
	rng   *sim.RNG
}

// NewChaos wraps the built inner transport. cfg must pass Validate;
// seed is the deployment's fabric seed, from which the perturbation RNG
// derives.
func NewChaos(inner Transport, cfg ChaosConfig, seed uint64) *Chaos {
	return &Chaos{cfg: cfg, inner: inner, eng: inner.Engine(), rng: sim.NewRNG(seed ^ 0x6368616f73)} // "chaos"
}

// Engine returns the inner backend's event clock.
func (c *Chaos) Engine() *sim.Engine { return c.inner.Engine() }

// Attach wraps the inner port with the perturbation state: a per-port
// RNG split (a port's draws depend only on its own issue sequence) and
// the per-destination release watermarks that keep delivery order.
func (c *Chaos) Attach(as *mem.AddressSpace, hier *memsim.Hierarchy) Port {
	return &chaosPort{
		Port:    c.inner.Attach(as, hier),
		fab:     c,
		rng:     c.rng.Split(),
		release: map[Port]sim.Time{},
	}
}

// AssignDomain places the inner port.
func (c *Chaos) AssignDomain(p Port, domain int) {
	if cp, ok := p.(*chaosPort); ok {
		c.inner.AssignDomain(cp.Port, domain)
	}
}

// chaosPort wraps one inner port. Registration, hooks and the address
// space pass straight through the embedded Port; Put draws a delay and
// defers the inner issue; Fence defers at the current watermark so it
// stays ordered between the puts it was called between.
type chaosPort struct {
	Port // the inner port
	fab  *Chaos
	rng  *sim.RNG
	// release clamps per-destination issue times monotone: a later put
	// that draws a smaller delay still issues no earlier than its
	// predecessor, preserving the inner backend's ordering guarantee.
	release map[Port]sim.Time
}

func (p *chaosPort) Label() string { return "chaos(" + p.Port.Label() + ")" }

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
	release := p.fab.eng.Now().Add(p.delay())
	if last := p.release[dst]; release < last {
		release = last
	}
	p.release[dst] = release
	if release == p.fab.eng.Now() {
		p.Port.Put(d.Port, srcVA, dstVA, size, key, onComplete)
		return
	}
	p.fab.eng.At(release, func() {
		p.Port.Put(d.Port, srcVA, dstVA, size, key, onComplete)
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
		p.Port.Fence(d.Port)
		return
	}
	p.fab.eng.At(wm, func() { p.Port.Fence(d.Port) })
}
