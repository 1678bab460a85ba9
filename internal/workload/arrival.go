package workload

import (
	"fmt"

	"twochains/internal/sim"
)

// arrivalSpec describes one arrival process. Validate checks the Arrival
// parameters during scenario resolution (at builds the blame-path for
// ScenarioError fields); Gen draws the n cumulative arrival offsets for
// one sender, in issue order, from the scenario RNG. A nil Gen marks a
// self-clocked (closed-loop) process: bursts chain on completion instead
// of firing at precomputed instants.
type arrivalSpec struct {
	name     string
	validate func(a *Arrival, at func(string) string) error
	gen      func(a *Arrival, rng *sim.RNG, n int) []sim.Duration
}

// arrivalSpecFor returns the process of kind, or nil for a kind outside
// the table.
func arrivalSpecFor(kind ArrivalKind) *arrivalSpec {
	if int(kind) >= len(arrivalKinds) {
		return nil
	}
	return &arrivalKinds[kind]
}

// ArrivalKindNames lists the arrival kinds as "name(kind)" strings in
// kind order, for error messages.
func ArrivalKindNames() []string {
	names := make([]string, len(arrivalKinds))
	for k, spec := range arrivalKinds {
		names[k] = fmt.Sprintf("%s(%d)", spec.name, k)
	}
	return names
}

// openLoop reports whether the arrival kind fires bursts at precomputed
// instants (a generator) rather than chaining on completion.
func (a Arrival) openLoop() bool {
	s := arrivalSpecFor(a.Kind)
	return s != nil && s.gen != nil
}

// arrivalKinds holds every arrival process, indexed by ArrivalKind.
var arrivalKinds = [...]arrivalSpec{
	ClosedLoop: {name: "closed-loop"},

	Poisson: {
		name: "poisson",
		validate: func(a *Arrival, at func(string) string) error {
			if !positiveFinite(a.RatePerSec) {
				return &ScenarioError{Field: at("Arrival.RatePerSec"),
					Reason: fmt.Sprintf("open-loop Poisson arrivals need a positive finite rate, have %v", a.RatePerSec)}
			}
			return nil
		},
		gen: func(a *Arrival, rng *sim.RNG, n int) []sim.Duration {
			mean := float64(sim.Second) / a.RatePerSec
			out := make([]sim.Duration, n)
			var at float64
			for i := range out {
				at += rng.Exp(mean)
				out[i] = sim.Duration(at)
			}
			return out
		},
	},

	MMPP: {
		name: "mmpp",
		validate: func(a *Arrival, at func(string) string) error {
			if !positiveFinite(a.RatePerSec) {
				return &ScenarioError{Field: at("Arrival.RatePerSec"),
					Reason: fmt.Sprintf("MMPP base state needs a positive finite rate, have %v", a.RatePerSec)}
			}
			if !positiveFinite(a.BurstRatePerSec) {
				return &ScenarioError{Field: at("Arrival.BurstRatePerSec"),
					Reason: fmt.Sprintf("MMPP burst state needs a positive finite rate, have %v", a.BurstRatePerSec)}
			}
			if a.MeanBase <= 0 {
				return &ScenarioError{Field: at("Arrival.MeanBase"),
					Reason: fmt.Sprintf("MMPP base-state sojourn must be positive, have %v", a.MeanBase)}
			}
			if a.MeanBurst <= 0 {
				return &ScenarioError{Field: at("Arrival.MeanBurst"),
					Reason: fmt.Sprintf("MMPP burst-state sojourn must be positive, have %v", a.MeanBurst)}
			}
			return nil
		},
		gen: func(a *Arrival, rng *sim.RNG, n int) []sim.Duration {
			// Two-state Markov-modulated Poisson process: arrivals are
			// Poisson at the current state's rate; the state flips after an
			// exponentially distributed sojourn. Gaps that straddle a state
			// change are re-drawn at the new rate (memorylessness makes the
			// re-draw exact), consuming RNG draws in a fixed order so equal
			// seeds replay the same burst structure.
			rate := [2]float64{a.RatePerSec, a.BurstRatePerSec}
			soj := [2]float64{float64(a.MeanBase), float64(a.MeanBurst)}
			out := make([]sim.Duration, n)
			state := 0
			rem := rng.Exp(soj[state])
			var at float64
			for i := 0; i < n; {
				gap := rng.Exp(float64(sim.Second) / rate[state])
				if gap <= rem {
					rem -= gap
					at += gap
					out[i] = sim.Duration(at)
					i++
					continue
				}
				at += rem
				state = 1 - state
				rem = rng.Exp(soj[state])
			}
			return out
		},
	},
}
