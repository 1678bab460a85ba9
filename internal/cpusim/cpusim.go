// Package cpusim accounts CPU cycles for the Two-Chains wait loops,
// reproducing the paper's §VII-D comparison of busy-poll spinning against
// Arm's WFE (Wait For Event) instruction.
//
// Latency and cycle cost diverge by design: a spinning core detects the
// mailbox signal a few nanoseconds sooner but burns one loop iteration's
// worth of cycles for the entire wait; a WFE-parked core pays a small wake
// latency while its clock is gated, costing a near-constant number of
// cycles per wait episode regardless of duration.
package cpusim

import (
	"twochains/internal/model"
	"twochains/internal/sim"
)

// WaitMode selects the signal wait implementation.
type WaitMode int

const (
	// Poll spins on the signal location (load + compare + branch).
	Poll WaitMode = iota
	// WFE arms the event monitor on the signal line and sleeps.
	WFE
)

// Counter accumulates the cycles one hardware thread spends across a
// benchmark run, split into useful work and signal waiting.
type Counter struct {
	WorkCycles float64
	WaitCycles float64
	rng        *sim.RNG
}

// NewCounter returns a counter; rng drives WFE spurious wakeups and may be
// shared or nil for a deterministic zero-spurious model.
func NewCounter(rng *sim.RNG) *Counter {
	return &Counter{rng: rng}
}

// Work records d of busy execution (packing, parsing, handler execution).
func (c *Counter) Work(d sim.Duration) {
	c.WorkCycles += model.DurToCycles(d)
}

// Wait records one wait episode of duration d in the given mode and
// returns the extra latency the mode adds to signal detection.
func (c *Counter) Wait(mode WaitMode, d sim.Duration) sim.Duration {
	if d < 0 {
		d = 0
	}
	switch mode {
	case Poll:
		// Fully busy for the duration of the wait.
		c.WaitCycles += model.DurToCycles(d)
		return model.PollDetectLat
	default: // WFE
		cycles := model.WfeWaitCycles
		// Spurious wakeups: events on the monitored line from unrelated
		// coherence traffic re-run the check loop.
		if c.rng != nil {
			mean := model.WfeSpuriousWakeMean * d.Microseconds()
			if mean > 0 {
				spurious := c.rng.Exp(mean)
				cycles += float64(spurious * model.WfeWaitCycles) // float64(): never fused
			}
		}
		c.WaitCycles += cycles
		return model.PollDetectLat + model.WfeWakeLat
	}
}

// Total returns all cycles accumulated.
func (c *Counter) Total() float64 { return c.WorkCycles + c.WaitCycles }
