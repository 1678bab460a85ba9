// Package perf is the Two-Chains benchmark harness: the ping-pong and
// injection-rate shapes of paper §VI-A, the benchmark drivers, and one
// registered experiment per figure of §VII. It plays the role of the UCX
// performance tester the authors extended.
package perf

import (
	"fmt"
	"sort"

	"twochains/internal/sim"
)

// Samples accumulates per-iteration measurements.
type Samples struct {
	vals []sim.Duration
}

// Add records one sample.
func (s *Samples) Add(d sim.Duration) { s.vals = append(s.vals, d) }

// N returns the sample count.
func (s *Samples) N() int { return len(s.vals) }

// sorted returns a sorted copy.
func (s *Samples) sorted() []sim.Duration {
	out := make([]sim.Duration, len(s.vals))
	copy(out, s.vals)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Percentile returns the p-quantile (0 <= p <= 1) by nearest-rank.
func (s *Samples) Percentile(p float64) sim.Duration {
	if len(s.vals) == 0 {
		return 0
	}
	sorted := s.sorted()
	idx := int(float64(p*float64(len(sorted)-1)) + 0.5) // float64(): never fused
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Median returns the 50th percentile (the paper's "typical" latency).
func (s *Samples) Median() sim.Duration { return s.Percentile(0.5) }

// Tail returns the 99.9th percentile (the paper's tail latency).
func (s *Samples) Tail() sim.Duration { return s.Percentile(0.999) }

// TailSpread computes the paper's equation (1):
//
//	spread = (tail - typical) / typical
//
// expressed as a fraction (multiply by 100 for percent).
func (s *Samples) TailSpread() float64 {
	med := s.Median()
	if med == 0 {
		return 0
	}
	return float64(s.Tail()-med) / float64(med)
}

// PercentDelta returns (b-a)/a as a percentage; negative means b is lower.
func PercentDelta(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / a * 100
}

// FmtUs formats a duration in microseconds with 3 decimals.
func FmtUs(d sim.Duration) string { return fmt.Sprintf("%.3f", d.Microseconds()) }

// FmtRate formats a messages/second rate.
func FmtRate(r float64) string {
	switch {
	case r >= 1e6:
		return fmt.Sprintf("%.2fM", r/1e6)
	case r >= 1e3:
		return fmt.Sprintf("%.1fk", r/1e3)
	}
	return fmt.Sprintf("%.0f", r)
}
