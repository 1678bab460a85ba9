package sim

import (
	"math/rand"
	"sort"
	"testing"
	"unsafe"
)

// TestEngineHeapMatchesSortedOrder drives the 4-ary heap with large
// random schedules — duplicate timestamps included — and checks events pop
// in exact (at, seq) order, the total order the old binary heap produced:
// by time, and at equal times in the order they were scheduled, whoever
// scheduled them and from wherever. The cases cover every scheduling
// context there is: a flat schedule built before the run, events
// scheduling events (at their own timestamp too), scheduling from outside
// any event while the run is paused between runUntil and Step calls, and
// scheduling after Advance moved the clock with nothing executing.
func TestEngineHeapMatchesSortedOrder(t *testing.T) {
	type key struct {
		at  Time
		seq int
	}
	// check runs drive against a fresh engine. Everything is scheduled
	// through sched, which numbers the calls; then, when set, runs inside
	// the event.
	check := func(t *testing.T, drive func(e *Engine, sched func(at Time, then func()))) {
		t.Helper()
		e := NewEngine()
		var want, got []key
		sched := func(at Time, then func()) {
			k := key{at, len(want)}
			want = append(want, k)
			e.At(at, func() {
				got = append(got, k)
				if then != nil {
					then()
				}
			})
		}
		drive(e, sched)
		e.Run()
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		if len(got) != len(want) {
			t.Fatalf("executed %d of %d events", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("event %d: got (at=%d seq=%d), want (at=%d seq=%d)",
					i, got[i].at, got[i].seq, want[i].at, want[i].seq)
			}
		}
	}

	t.Run("flat", func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		check(t, func(e *Engine, sched func(Time, func())) {
			for i := 0; i < 5000; i++ {
				sched(Time(rng.Intn(500)), nil) // dense times force many ties
			}
		})
	})

	// Events schedule events, three generations deep, at offsets 0..3 from
	// their own timestamp: children of different parents tie with each
	// other, with their parents' siblings and with the flat schedule.
	t.Run("nested", func(t *testing.T) {
		rng := rand.New(rand.NewSource(43))
		check(t, func(e *Engine, sched func(Time, func())) {
			var spawn func(depth int) func()
			spawn = func(depth int) func() {
				if depth == 0 {
					return nil
				}
				return func() {
					for n := rng.Intn(3); n > 0; n-- {
						sched(e.Now()+Time(rng.Intn(4)), spawn(depth-1))
					}
				}
			}
			for i := 0; i < 1500; i++ {
				sched(Time(rng.Intn(200)), spawn(3))
			}
		})
	})

	// The run pauses — runUntil between timestamps and on one, Step in
	// the middle of a timestamp — and each pause schedules from outside
	// any event, onto the paused timestamp and onto later ones that
	// already hold events scheduled before the pause and will receive
	// nested ones after it.
	t.Run("paused", func(t *testing.T) {
		rng := rand.New(rand.NewSource(44))
		check(t, func(e *Engine, sched func(Time, func())) {
			nest := func() { sched(e.Now()+Time(rng.Intn(3)), nil) }
			outside := func() {
				for i := 0; i < 40; i++ {
					sched(e.Now()+Time(rng.Intn(30)), nest)
				}
			}
			for i := 0; i < 2000; i++ {
				sched(Time(rng.Intn(300)), nest)
			}
			for _, stop := range []Time{0, 17, 17, 90, 150} {
				e.runUntil(stop)
				outside()
				for i := rng.Intn(5); i > 0; i-- {
					e.Step()
				}
				outside()
			}
		})
	})

	// A deadline with nothing due moves the clock with no event
	// executing; what is scheduled next ties with events scheduled before
	// the clock moved.
	t.Run("advance", func(t *testing.T) {
		rng := rand.New(rand.NewSource(45))
		check(t, func(e *Engine, sched func(Time, func())) {
			nest := func() { sched(e.Now()+Time(rng.Intn(3)), nil) }
			for i := 0; i < 500; i++ {
				sched(100+Time(rng.Intn(50)), nest)
			}
			e.runUntil(60)
			for i := 0; i < 500; i++ {
				sched(100+Time(rng.Intn(50)), nest)
			}
			e.runUntil(120)
			for i := 0; i < 200; i++ {
				sched(120+Time(rng.Intn(30)), nest)
			}
		})
	})
}

// TestEngineSameTimestampSeqOrder pins the FIFO tie-break when events
// are interleaved with differently-timed ones (so the heap actually has
// to restore order, unlike an append-only schedule).
func TestEngineSameTimestampSeqOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 8; i++ {
		i := i
		e.At(Time(100+10*(i%2)), func() { got = append(got, i) }) // alternate 100/110
	}
	e.Run()
	want := []int{0, 2, 4, 6, 1, 3, 5, 7} // all t=100 in seq order, then all t=110
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

// TestEngineScheduleAtNowFromEvent schedules new work at the current
// time from inside an executing event: it must run in this same
// time-step, after already-queued events of the same timestamp (its seq
// is larger), and before any later-timed event.
func TestEngineScheduleAtNowFromEvent(t *testing.T) {
	e := NewEngine()
	var got []string
	e.At(10, func() {
		got = append(got, "a")
		e.At(e.Now(), func() { got = append(got, "now") })
		e.After(0, func() { got = append(got, "after0") })
	})
	e.At(10, func() { got = append(got, "b") })
	e.At(11, func() { got = append(got, "later") })
	e.Run()
	want := []string{"a", "b", "now", "after0", "later"}
	if len(got) != len(want) {
		t.Fatalf("ran %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 11 {
		t.Fatalf("Now = %d, want 11", e.Now())
	}
}

// TestRunUntilLeavesFutureEventsQueued pins that runUntil executes
// nothing past the deadline, leaves the remainder queued in order, and
// that a subsequent Run drains them.
func TestRunUntilLeavesFutureEventsQueued(t *testing.T) {
	e := NewEngine()
	var got []int
	for _, at := range []Time{5, 10, 15, 20, 25} {
		at := at
		e.At(at, func() { got = append(got, int(at)) })
	}
	e.runUntil(15)
	if len(got) != 3 || got[0] != 5 || got[1] != 10 || got[2] != 15 {
		t.Fatalf("ran %v through deadline 15", got)
	}
	if len(e.queue) != 2 {
		t.Fatalf("pending = %d, want 2", len(e.queue))
	}
	if e.Now() != 15 {
		t.Fatalf("Now = %d, want 15", e.Now())
	}
	e.Run()
	if len(got) != 5 || got[3] != 20 || got[4] != 25 {
		t.Fatalf("drain after runUntil ran %v", got)
	}
}

// TestEngineQueueReleasesClosures checks the popped tail slot is zeroed:
// the queue must not pin executed closures (their captures) alive.
func TestEngineQueueReleasesClosures(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 64; i++ {
		e.At(Time(i), func() {})
	}
	e.Run()
	for i := range e.queue[:cap(e.queue)] {
		ev := e.queue[:cap(e.queue):cap(e.queue)][i]
		if ev.fn != nil {
			t.Fatalf("queue slot %d still holds a closure after Run", i)
		}
	}
}

// TestEventIsThreeWords pins the queue element's size: sift-up and
// sift-down move whole events, so every word added to one is paid on
// every heap level of every push and pop.
func TestEventIsThreeWords(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 24 {
		t.Fatalf("sizeof(event) = %d, want 24 (at, seq, fn)", got)
	}
}

// --- engine micro-benchmarks (the sim → injection hot path's base cost) ---

// BenchmarkEngineSchedulePop measures the push+pop cycle at a steady
// queue depth typical of a loaded mesh (hundreds of in-flight events).
func BenchmarkEngineSchedulePop(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	fn := func() {}
	const depth = 256
	for i := 0; i < depth; i++ {
		e.At(Time(i), fn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(e.Now()+depth, fn)
		e.Step()
	}
}

// BenchmarkEngineCascade measures self-rescheduling chains — the
// self-clocked sender pattern — with an otherwise empty queue.
func BenchmarkEngineCascade(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(10, tick)
		}
	}
	b.ResetTimer()
	e.After(0, tick)
	e.Run()
	if n < b.N {
		b.Fatalf("ran %d of %d ticks", n, b.N)
	}
}

// BenchmarkEngineBurstDrain measures scheduling a full burst then
// draining it — the SendBatch shape.
func BenchmarkEngineBurstDrain(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	fn := func() {}
	const burst = 64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := e.Now()
		for j := 0; j < burst; j++ {
			e.At(base+Time(j%7), fn)
		}
		e.Run()
	}
	b.SetBytes(0)
}

// runUntil pauses a run: it executes the events with time <= deadline and
// leaves later ones queued. The clock is left at the last executed event,
// or advanced to deadline if nothing else ran.
func (e *Engine) runUntil(deadline Time) {
	for len(e.queue) > 0 && e.queue[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}
