package sim

import (
	"strings"
	"testing"
)

// TestGroupToyDeterminism drives a toy multi-shard model — chains of
// events that hop between shards with at least the lookahead — and
// checks the execution trace is identical for every worker count.
func TestGroupToyDeterminism(t *testing.T) {
	const shards = 4
	const look = Duration(100)
	run := func(workers int) (trace []int64, final Time) {
		g := NewGroup(shards, workers, look)
		var mu = make([][]int64, shards)
		var hop func(s int, depth int, at Time)
		hop = func(s int, depth int, at Time) {
			mu[s] = append(mu[s], int64(at)*31+int64(s))
			if depth == 0 {
				return
			}
			// Local follow-up inside the window...
			g.Engine(s).After(Duration(3+depth%7), func() {
				mu[s] = append(mu[s], int64(depth))
			})
			// ...and a cross-shard hop at exactly the lookahead bound.
			d := (s + 1) % shards
			nextAt := g.Engine(s).Now().Add(look + Duration(depth%13))
			g.Handoff(s, d, nextAt, func() { hop(d, depth-1, nextAt) })
		}
		for s := 0; s < shards; s++ {
			s := s
			g.Engine(s).At(Time(s+1), func() { hop(s, 50, Time(s+1)) })
		}
		g.Run()
		for s := 0; s < shards; s++ {
			trace = append(trace, mu[s]...)
		}
		return trace, g.Now()
	}
	baseTrace, baseNow := run(1)
	for _, w := range []int{2, 4} {
		tr, now := run(w)
		if now != baseNow {
			t.Fatalf("workers=%d: final time %d, want %d", w, now, baseNow)
		}
		if len(tr) != len(baseTrace) {
			t.Fatalf("workers=%d: trace length %d, want %d", w, len(tr), len(baseTrace))
		}
		for i := range tr {
			if tr[i] != baseTrace[i] {
				t.Fatalf("workers=%d: trace[%d] = %d, want %d", w, i, tr[i], baseTrace[i])
			}
		}
	}
}

// TestGroupSerialExact pins that serial holds execute in exact global
// (at, seq) order across shards, including same-timestamp ties.
func TestGroupSerialExact(t *testing.T) {
	g := NewGroup(3, 2, 50)
	g.HoldSerial()
	var order []int
	// Same timestamp on three shards: scheduling order must win.
	for s := 2; s >= 0; s-- {
		s := s
		g.Engine(s).At(10, func() { order = append(order, s) })
	}
	g.Run()
	want := []int{2, 1, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("serial order %v, want %v", order, want)
		}
	}
	g.ReleaseSerial()
}

// TestGroupRunUntil checks deadline semantics across shards.
func TestGroupRunUntil(t *testing.T) {
	g := NewGroup(2, 2, 50)
	var ran []int
	g.Engine(0).At(10, func() { ran = append(ran, 0) })
	g.Engine(1).At(200, func() { ran = append(ran, 1) })
	g.RunUntil(100)
	if len(ran) != 1 || ran[0] != 0 {
		t.Fatalf("ran %v, want [0]", ran)
	}
	if g.Engine(0).Now() != 100 {
		t.Fatalf("idle shard clock %d, want 100", g.Engine(0).Now())
	}
	g.Run()
	if len(ran) != 2 {
		t.Fatalf("ran %v after full run", ran)
	}
}

// TestGroupWindowsEngage pins the engagement metric: a hold-free run on a
// multi-worker group must execute parallel windows, and the serial-hold
// regime must not count any.
func TestGroupWindowsEngage(t *testing.T) {
	g := NewGroup(2, 2, 50)
	g.Engine(0).At(10, func() { g.Handoff(0, 1, 60, func() {}) })
	g.Engine(1).At(20, func() {})
	g.Run()
	if g.Windows() == 0 {
		t.Fatal("hold-free run executed zero parallel windows")
	}
	g = NewGroup(2, 2, 50)
	g.HoldSerial()
	g.Engine(0).At(10, func() {})
	g.Engine(1).At(20, func() {})
	g.Run()
	if g.Windows() != 0 {
		t.Fatalf("serial-hold run counted %d windows, want 0", g.Windows())
	}
}

// TestGroupLookaheadViolation pins the contract guard: a hand-off that
// undercuts the lookahead lands behind the destination shard's clock
// inside one window, and the barrier merge must panic with the
// diagnostic instead of scheduling it.
func TestGroupLookaheadViolation(t *testing.T) {
	g := NewGroup(2, 2, 100)
	e0 := g.Engine(0)
	// Shard 0 runs to 90 inside the first window (horizon 0 + 100).
	for at := Time(0); at <= 90; at += 10 {
		e0.At(at, func() {})
	}
	// Shard 1 wakes at 50 and hands off an arrival at 60 — far below the
	// 100-tick lookahead it promised.
	g.Engine(1).At(50, func() { g.Handoff(1, 0, 60, func() { t.Error("past arrival executed") }) })
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "lookahead contract violated: shard 1 -> 0 arrival at 60 lands before the destination clock 90") {
			t.Fatalf("panic %q, want the lookahead-contract diagnostic", msg)
		}
		if e0.Pending() != 0 {
			t.Fatalf("%d events scheduled on the destination after the violation", e0.Pending())
		}
	}()
	g.Run()
}
