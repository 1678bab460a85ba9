// Package sim provides the discrete-event simulation kernel used by every
// timing model in the repository: a virtual clock, an event queue, a
// deterministic random number generator, and simple queueing resources.
//
// All Two-Chains experiments run on simulated time. The functional path
// (message packing, GOT patching, jam execution) is real computation; only
// the passage of time is modelled, which makes every figure in the paper
// exactly reproducible from a seed.
package sim

import "fmt"

// Time is a point in simulated time, measured in integer picoseconds.
// Picosecond resolution lets the model express sub-nanosecond constants
// (e.g. per-byte wire time at 200 Gb/s is 40 ps) without floating-point
// drift, while int64 still covers more than 100 days of simulated time.
type Time int64

// Duration is a span of simulated time in picoseconds.
type Duration int64

// Common durations.
const (
	Picosecond  Duration = 1
	Nanosecond  Duration = 1000 * Picosecond
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u (t - u).
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Nanoseconds returns the duration as a float64 number of nanoseconds.
func (d Duration) Nanoseconds() float64 { return float64(d) / float64(Nanosecond) }

// Microseconds returns the duration as a float64 number of microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// Seconds returns the duration as a float64 number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// FromNanos converts a float64 nanosecond count to a Duration, rounding to
// the nearest picosecond.
func FromNanos(ns float64) Duration {
	if ns < 0 {
		return 0
	}
	return Duration(float64(ns*float64(Nanosecond)) + 0.5) // float64(): never fused
}

// String formats the duration with an adaptive unit, for logs and tables.
func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.3fus", d.Microseconds())
	case d >= Nanosecond:
		return fmt.Sprintf("%.1fns", d.Nanoseconds())
	default:
		return fmt.Sprintf("%dps", int64(d))
	}
}

// Max returns the later of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}
