// Package tenant is the multi-tenant serving layer's state: named
// tenants with fair-share weights, per-tenant admission control (token
// buckets in simulated time), and the naming convention that keys
// per-tenant package namespaces.
//
// The package is deliberately thin — plain deterministic state machines
// over sim time — so it can sit under both the tc call path and the
// workload driver without dragging either's dependencies along.
//
// # Where the state lives
//
// See ROADMAP "Multi-tenant serving":
//
//   - Admission buckets are indexed by the *issuing* node: a node's
//     admission decisions depend only on its own issue sequence.
//   - Fair-queue state lives in mailbox.FairArbiter on the *receiving*
//     node, not here; the tenant only contributes its dense ID (the
//     arbiter class) and weight.
//   - The admit/drop/defer counters are per tenant; tc.System.Stats sums
//     them over tenants.
package tenant

import (
	"fmt"
	"math"

	"twochains/internal/sim"
)

// Qualified returns the name a tenant's install of pkg registers under
// on every node — the per-tenant package namespace key. Two tenants
// installing the same app (or different versions of it) get distinct
// qualified names, hence distinct installed-package IDs and element-ID
// spaces.
func Qualified(tenant, pkg string) string { return tenant + "::" + pkg }

// Policy selects what a failed admission does to the call.
type Policy uint8

const (
	// Drop rejects the call outright: the future resolves with an
	// *AdmissionError carrying no retry hint.
	Drop Policy = iota
	// Defer rejects the call with a retry hint: the future resolves with
	// an *AdmissionError whose RetryAfter says when the bucket will have
	// refilled enough for the call to pass.
	Defer
)

// Admission is a tenant's token-bucket configuration. The bucket is
// per *sender node* (matching the per-sender convention of open-loop
// arrival rates): each node's issue stream draws from its own bucket,
// refilled in simulated time.
type Admission struct {
	// RatePerSec is the sustained admission rate in messages per
	// simulated second, per sender node. Must be > 0.
	RatePerSec float64
	// Burst is the bucket capacity in messages (0 defaults to the larger
	// of one message and ~10 ms worth of rate).
	Burst float64
	// Policy selects Drop (default) or Defer on an empty bucket.
	Policy Policy
}

// Capacity returns the bucket capacity in messages: Burst, or its
// default when Burst is 0.
func (a Admission) Capacity() float64 {
	if a.Burst > 0 {
		return a.Burst
	}
	return max(a.RatePerSec/100, 1)
}

// Decision is one admission outcome.
type Decision struct {
	OK bool
	// RetryAfter is the Defer hint: how long until the bucket will hold
	// enough tokens (zero under Drop).
	RetryAfter sim.Duration
}

// AdmissionError is the typed error a rejected call resolves with; the
// tc layer surfaces it through Future.IssueErr, so issue loops can
// switch on it (and honor RetryAfter) instead of parsing messages.
type AdmissionError struct {
	Tenant string
	// Deferred distinguishes a Defer rejection (RetryAfter is the
	// bucket's refill horizon) from a Drop.
	Deferred   bool
	RetryAfter sim.Duration
}

func (e *AdmissionError) Error() string {
	if e.Deferred {
		return fmt.Sprintf("tenant %s: admission deferred (retry in %s)", e.Tenant, e.RetryAfter)
	}
	return fmt.Sprintf("tenant %s: admission dropped", e.Tenant)
}

// bucket is one sender node's token bucket.
type bucket struct {
	tokens float64
	last   sim.Time
	inited bool
}

// Tenant is one serving tenant: a dense ID (the fair-queue class on
// every receiving node), a fair-share weight, and optional admission
// control.
type Tenant struct {
	Name   string
	ID     int
	Weight int
	// Admission is the token-bucket config (nil = unlimited).
	Admission *Admission
	// Untrusted marks the tenant's jams as requiring an isolation
	// boundary per invocation (priced by model.TenantIsolationCost at the
	// receiver).
	Untrusted bool

	// Under admission control, Admitted and Dropped count the messages
	// Admit passed and refused under Drop; Deferred counts its Defer
	// decisions.
	Admitted uint64
	Dropped  uint64
	Deferred uint64

	// buckets is indexed by issuing node (see the package comment).
	buckets []bucket
}

// Admit charges n messages issued from node src at simulated time now
// against the tenant's bucket. A tenant without admission control admits
// everything.
func (t *Tenant) Admit(src int, now sim.Time, n int) Decision {
	if t.Admission == nil {
		return Decision{OK: true}
	}
	a := t.Admission
	b := &t.buckets[src]
	if !b.inited {
		b.tokens, b.last, b.inited = a.Burst, now, true
	}
	if d := now.Sub(b.last); d > 0 {
		b.tokens += float64(d.Seconds() * a.RatePerSec) // float64(): never fused
		if b.tokens > a.Burst {
			b.tokens = a.Burst
		}
		b.last = now
	}
	need := float64(n)
	if b.tokens >= need {
		b.tokens -= need
		t.Admitted += uint64(n)
		return Decision{OK: true}
	}
	if a.Policy == Defer {
		t.Deferred++
		wait := (need - b.tokens) / a.RatePerSec // seconds until refilled
		return Decision{RetryAfter: sim.Duration(wait*float64(sim.Second)) + 1}
	}
	t.Dropped += uint64(n)
	return Decision{}
}

// Reject builds the typed error for a failed Decision.
func (t *Tenant) Reject(d Decision) *AdmissionError {
	return &AdmissionError{Tenant: t.Name, Deferred: d.RetryAfter > 0, RetryAfter: d.RetryAfter}
}

// Config declares one tenant.
type Config struct {
	Name   string
	Weight int
	// Admission enables token-bucket admission control (nil = none).
	Admission *Admission
	// Untrusted prices an isolation boundary per invocation at the
	// receiver (the Virtines-grounded model.TenantIsolationCost knob).
	Untrusted bool
}

// Registry is the per-system tenant set: dense IDs in Add order, unique
// names, per-node bucket state sized to the node count.
type Registry struct {
	nodes int
	// Tenants lists the registered tenants in ID order.
	Tenants []*Tenant
}

// NewRegistry returns an empty registry for a fabric of nodes nodes.
func NewRegistry(nodes int) *Registry {
	return &Registry{nodes: nodes}
}

// Add registers a tenant and returns it. Names must be unique and
// non-empty, weights >= 1, admission rates positive and finite, and
// admission bursts finite and not negative.
func (g *Registry) Add(cfg Config) (*Tenant, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("tenant: empty name")
	}
	if _, dup := g.Lookup(cfg.Name); dup {
		return nil, fmt.Errorf("tenant: duplicate tenant %q", cfg.Name)
	}
	if cfg.Weight < 1 {
		return nil, fmt.Errorf("tenant: %s: weight must be >= 1, have %d", cfg.Name, cfg.Weight)
	}
	t := &Tenant{
		Name:      cfg.Name,
		ID:        len(g.Tenants),
		Weight:    cfg.Weight,
		Untrusted: cfg.Untrusted,
		buckets:   make([]bucket, g.nodes),
	}
	if cfg.Admission != nil {
		a := *cfg.Admission
		if !(a.RatePerSec > 0) || math.IsInf(a.RatePerSec, 1) {
			return nil, fmt.Errorf("tenant: %s: admission rate must be positive and finite, have %v",
				cfg.Name, a.RatePerSec)
		}
		if !(a.Burst >= 0) || math.IsInf(a.Burst, 1) {
			return nil, fmt.Errorf("tenant: %s: admission burst must be finite and >= 0, have %v",
				cfg.Name, a.Burst)
		}
		a.Burst = a.Capacity()
		t.Admission = &a
	}
	g.Tenants = append(g.Tenants, t)
	return t, nil
}

// Lookup returns the named tenant.
func (g *Registry) Lookup(name string) (*Tenant, bool) {
	for _, t := range g.Tenants {
		if t.Name == name {
			return t, true
		}
	}
	return nil, false
}
