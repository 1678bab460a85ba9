package cpusim

import (
	"testing"

	"twochains/internal/model"
	"twochains/internal/sim"
)

func TestPollBurnsProportionalCycles(t *testing.T) {
	c := NewCounter(nil)
	c.Wait(Poll, 1000*sim.Nanosecond)
	one := c.WaitCycles
	c.Wait(Poll, 9000*sim.Nanosecond)
	if c.WaitCycles < 9*one {
		t.Fatalf("poll cycles not proportional: %f then %f", one, c.WaitCycles)
	}
	// 1us at 2.6GHz = 2600 cycles.
	if one < 2500 || one > 2700 {
		t.Fatalf("1us poll = %f cycles", one)
	}
}

func TestWfeCyclesNearConstant(t *testing.T) {
	c := NewCounter(nil)
	c.Wait(WFE, 1000*sim.Nanosecond)
	short := c.WaitCycles
	c.WorkCycles, c.WaitCycles = 0, 0
	c.Wait(WFE, 100_000*sim.Nanosecond)
	long := c.WaitCycles
	if long > 10*short {
		t.Fatalf("WFE cycles grew with wait length: %f vs %f", short, long)
	}
	if short != model.WfeWaitCycles {
		t.Fatalf("WFE episode = %f cycles, want %f", short, model.WfeWaitCycles)
	}
}

func TestWfeAddsWakeLatency(t *testing.T) {
	c := NewCounter(nil)
	lp := c.Wait(Poll, sim.Microsecond)
	lw := c.Wait(WFE, sim.Microsecond)
	if lw <= lp {
		t.Fatalf("WFE wake %v not slower than poll detect %v", lw, lp)
	}
	if lw-lp != model.WfeWakeLat {
		t.Fatalf("wake delta %v, want %v", lw-lp, model.WfeWakeLat)
	}
}

func TestWfeSpuriousWakeups(t *testing.T) {
	rng := sim.NewRNG(42)
	c := NewCounter(rng)
	var total float64
	const n = 1000
	for i := 0; i < n; i++ {
		c.WorkCycles, c.WaitCycles = 0, 0
		c.Wait(WFE, 100*sim.Microsecond)
		total += c.WaitCycles
	}
	mean := total / n
	// 100us * 0.05 wakes/us = ~5 extra episodes on average.
	if mean < model.WfeWaitCycles*2 || mean > model.WfeWaitCycles*20 {
		t.Fatalf("mean WFE cycles with spurious wakes = %f", mean)
	}
	// The band above holds for any wake rate within a factor of a few;
	// the exact total of the seed-42 stream pins WfeSpuriousWakeMean.
	const wantTotal = 356314.90518136974
	if total != wantTotal {
		t.Fatalf("total WFE cycles of the seed-42 stream = %v, want %v", total, wantTotal)
	}
}

func TestWorkAccumulates(t *testing.T) {
	c := NewCounter(nil)
	c.Work(sim.Microsecond)
	c.Work(sim.Microsecond)
	if c.WorkCycles < 5000 || c.WorkCycles > 5400 {
		t.Fatalf("2us work = %f cycles", c.WorkCycles)
	}
	if c.Total() != c.WorkCycles {
		t.Fatal("Total != Work with no waits")
	}
}

func TestNegativeWaitClamped(t *testing.T) {
	c := NewCounter(nil)
	c.Wait(Poll, -5)
	if c.WaitCycles != 0 {
		t.Fatalf("negative wait charged %f", c.WaitCycles)
	}
}

func TestPaperRatioShape(t *testing.T) {
	// The §VII-D shape: for a ping-pong with ~1us waits and ~0.3us work,
	// polling should cost several times more cycles than WFE overall.
	run := func(mode WaitMode) float64 {
		c := NewCounter(nil)
		for i := 0; i < 1000; i++ {
			c.Work(300 * sim.Nanosecond)
			c.Wait(mode, 1200*sim.Nanosecond)
		}
		return c.Total()
	}
	ratio := run(Poll) / run(WFE)
	if ratio < 2 || ratio > 6 {
		t.Fatalf("poll/wfe cycle ratio = %.2f, want 2-6 (paper: 2.5-3.8x)", ratio)
	}
}
