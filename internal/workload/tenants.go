package workload

import (
	"errors"
	"fmt"
	"sort"
	"strconv"

	"twochains/internal/sim"
	"twochains/internal/tenant"
)

// AdmitSpec is a tenant's token-bucket admission configuration in
// scenario form (see tenant.Admission for the semantics).
type AdmitSpec struct {
	// RatePerSec is the sustained admission rate per sender node in
	// messages per simulated second (> 0, finite).
	RatePerSec float64
	// Burst is the bucket capacity in messages (0 = default). The
	// bucket must hold at least Scenario.Burst tokens, or no burst is
	// ever admitted.
	Burst float64
	// Defer rejects with a retry hint instead of dropping; the driver
	// honours the hint and re-issues the burst.
	Defer bool
}

// TenantSpec declares one tenant of a multi-tenant scenario.
type TenantSpec struct {
	Name string
	// Weight is the tenant's fair-share weight at every receiving node
	// (>= 1).
	Weight int
	// Load scales the tenant's open-loop Poisson rates (0 = 1.0) — the
	// overload-composition knob: the same phase list at 2x, 10x, ...
	Load float64
	// Admit enables token-bucket admission control (nil = none).
	Admit *AdmitSpec
	// Untrusted prices an isolation boundary per invocation at the
	// receiver (model.TenantIsolationCost).
	Untrusted bool //tclint:allow neverset ROADMAP item 11 decides it
	// Phases is the tenant's own phase list; empty reuses the
	// scenario-level phases. RIED swaps are not supported inside tenant
	// phases, and Fail/Rejoin entries may appear in the phases of at most
	// one tenant (the failure plan is fabric-wide: every tenant loses its
	// traffic through the dead node, whichever lane scheduled it).
	Phases []Phase
}

// TenantResult is one tenant's slice of a multi-tenant run.
type TenantResult struct {
	Name   string
	Weight int
	// Planned counts the tenant's planned messages; Serviced those that
	// completed receiver-side service (handler faults included); Dropped
	// and Deferred the admission outcomes (Deferred counts deferral
	// events — one burst can defer more than once); Lost the messages a
	// node failure made unserviceable (Serviced + Dropped + Lost ==
	// Planned); Errors the receiver-side failures.
	Planned  int
	Serviced int
	Dropped  int
	Deferred int
	Lost     int //tclint:allow writeonly the per-tenant loss ledger the workload tests pin
	Errors   int
	// GoodputPerSec is the tenant's serviced messages per simulated
	// second inside the run's overlap window (the fair-share comparison
	// metric).
	GoodputPerSec float64
	// P99Latency is the 99th percentile of issue-to-delivery simulated
	// latency (credit stalls under overload push it up); LastService the
	// tenant's final service stamp.
	P99Latency  sim.Duration
	LastService sim.Duration
}

// laneSpec is one lane's resolved phase program. cfg is the tenant the
// lane registers; the base lane of a scenario without Tenants has none
// (empty name — tenant names are validated non-empty).
type laneSpec struct {
	cfg   tenant.Config
	specs []phaseSpec
}

// resolveLanes applies defaulting and validates the phase and tenant
// surface: one base lane running the scenario-level phases, or one lane
// per tenant.
func (sc *Scenario) resolveLanes() ([]laneSpec, error) {
	specs, err := sc.resolvePhases()
	if err != nil {
		return nil, err
	}
	if len(sc.Tenants) == 0 {
		return []laneSpec{{specs: specs}}, nil
	}
	return sc.resolveTenants(specs)
}

// resolveTenants validates the tenant surface and resolves each
// tenant's phase list (its own, or the scenario-level base), scaling
// open-loop rates by Load.
func (sc *Scenario) resolveTenants(base []phaseSpec) ([]laneSpec, error) {
	lanes := make([]laneSpec, len(sc.Tenants))
	seen := map[string]bool{}
	failLane := -1 // the one lane whose phases carry the failure plan
	for i, ts := range sc.Tenants {
		at := func(f string) string { return fmt.Sprintf("Tenants[%d].%s", i, f) }
		if ts.Name == "" {
			return nil, &ScenarioError{Field: at("Name"), Reason: "empty tenant name"}
		}
		if seen[ts.Name] {
			return nil, &ScenarioError{Field: at("Name"), Reason: fmt.Sprintf("duplicate tenant %q", ts.Name)}
		}
		seen[ts.Name] = true
		if ts.Weight < 1 {
			return nil, &ScenarioError{Field: at("Weight"),
				Reason: fmt.Sprintf("fair-share weight must be >= 1, have %d", ts.Weight)}
		}
		if !nonNegFinite(ts.Load) {
			return nil, &ScenarioError{Field: at("Load"), Reason: fmt.Sprintf("load factor %v is negative or not finite", ts.Load)}
		}
		load := ts.Load
		if load == 0 {
			load = 1
		}
		var specs []phaseSpec
		if len(ts.Phases) > 0 {
			tsc := *sc
			tsc.Phases = ts.Phases
			var err error
			specs, err = tsc.resolvePhases()
			if err != nil {
				var se *ScenarioError
				if errors.As(err, &se) {
					return nil, &ScenarioError{Field: fmt.Sprintf("Tenants[%d].%s", i, se.Field), Reason: se.Reason}
				}
				return nil, err
			}
			for j := range specs {
				specs[j].fieldPrefix = "Tenants[" + strconv.Itoa(i) + "]." + specs[j].fieldPrefix
			}
		} else {
			// The tenant rides the scenario-level phases; copy so Load
			// scaling below stays per-tenant.
			specs = append([]phaseSpec(nil), base...)
		}
		for j := range specs {
			if specs[j].swap != nil {
				return nil, &ScenarioError{Field: specs[j].at("Swap"),
					Reason: "RIED swaps are not supported in tenant phases"}
			}
			if len(specs[j].fail) > 0 || len(specs[j].rejoin) > 0 {
				if failLane >= 0 && failLane != i {
					field := "Fail"
					if len(specs[j].fail) == 0 {
						field = "Rejoin"
					}
					return nil, &ScenarioError{Field: specs[j].at(field),
						Reason: fmt.Sprintf("tenant %q already declares node fail/rejoin; the failure plan belongs to one tenant's phases",
							sc.Tenants[failLane].Name)}
				}
				failLane = i
			}
			switch specs[j].arrival.Kind {
			case Poisson:
				specs[j].arrival.RatePerSec *= load
			case MMPP:
				specs[j].arrival.RatePerSec *= load
				specs[j].arrival.BurstRatePerSec *= load
			}
		}
		lanes[i] = laneSpec{specs: specs, cfg: tenant.Config{
			Name: ts.Name, Weight: ts.Weight, Untrusted: ts.Untrusted,
		}}
		if ts.Admit != nil {
			if !positiveFinite(ts.Admit.RatePerSec) {
				return nil, &ScenarioError{Field: at("Admit.RatePerSec"),
					Reason: fmt.Sprintf("admission rate must be positive and finite, have %v", ts.Admit.RatePerSec)}
			}
			if !nonNegFinite(ts.Admit.Burst) {
				return nil, &ScenarioError{Field: at("Admit.Burst"),
					Reason: fmt.Sprintf("bucket capacity %v is negative or not finite", ts.Admit.Burst)}
			}
			pol := tenant.Drop
			if ts.Admit.Defer {
				pol = tenant.Defer
			}
			a := &tenant.Admission{RatePerSec: ts.Admit.RatePerSec, Burst: ts.Admit.Burst, Policy: pol}
			// A bucket smaller than one burst never admits it: dropped,
			// or deferred and re-issued forever.
			if c := a.Capacity(); c < float64(sc.Burst) {
				return nil, &ScenarioError{Field: at("Admit.Burst"),
					Reason: fmt.Sprintf("a %v-token bucket can never admit a %d-message burst", c, sc.Burst)}
			}
			lanes[i].cfg.Admission = a
		}
	}
	return lanes, nil
}

// tenantResults assembles the per-tenant reports of a multi-tenant run
// and the overlap window their goodput is measured in.
func tenantResults(lanes []*lane) ([]TenantResult, sim.Duration) {
	// The overlap window: every tenant's servicing overlaps in [0, W], so
	// goodput inside it compares fair shares instead of drain tails.
	lasts := make([]sim.Time, len(lanes))
	window := sim.Time(0)
	for i, l := range lanes {
		for _, t := range l.svc {
			if t > lasts[i] {
				lasts[i] = t
			}
		}
		if i == 0 || lasts[i] < window {
			window = lasts[i]
		}
	}

	out := make([]TenantResult, len(lanes))
	for i, l := range lanes {
		tr := TenantResult{
			Name: l.view, Weight: l.ten.Weight,
			Planned:     l.cum[len(l.cum)-1],
			Serviced:    len(l.svc),
			Dropped:     int(l.ten.Dropped),
			Deferred:    int(l.ten.Deferred),
			Lost:        l.lost,
			Errors:      l.errs,
			LastService: sim.Duration(lasts[i]),
		}
		inWindow := 0
		for _, t := range l.svc {
			if t <= window {
				inWindow++
			}
		}
		if secs := sim.Duration(window).Seconds(); secs > 0 {
			tr.GoodputPerSec = float64(inWindow) / secs
		}
		if lats := l.lat; len(lats) > 0 {
			sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
			idx := (99*len(lats) + 99) / 100
			if idx > len(lats) {
				idx = len(lats)
			}
			tr.P99Latency = lats[idx-1]
		}
		out[i] = tr
	}
	return out, sim.Duration(window)
}
