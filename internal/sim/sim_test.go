package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %d, want 30", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("tie-break not FIFO: %v", got)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	count := 0
	var recur func()
	recur = func() {
		count++
		if count < 5 {
			e.After(10, recur)
		}
	}
	e.After(0, recur)
	e.Run()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if e.Now() != 40 {
		t.Fatalf("Now = %d, want 40", e.Now())
	}
}

func TestEnginePastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.At(10, func() { ran++ })
	e.At(20, func() { ran++ })
	e.At(30, func() { ran++ })
	e.runUntil(20)
	if ran != 2 {
		t.Fatalf("ran = %d, want 2", ran)
	}
	if len(e.queue) != 1 {
		t.Fatalf("pending = %d, want 1", len(e.queue))
	}
	if e.Now() != 20 {
		t.Fatalf("Now = %d, want 20", e.Now())
	}
}

func TestResourcePipelining(t *testing.T) {
	r := new(Resource)
	// Three back-to-back claims at t=0 serialize.
	d1 := r.Claim(0, 100)
	d2 := r.Claim(0, 100)
	d3 := r.Claim(0, 100)
	if d1 != 100 || d2 != 200 || d3 != 300 {
		t.Fatalf("got %d %d %d, want 100 200 300", d1, d2, d3)
	}
	// A claim after the backlog drains starts immediately.
	d4 := r.Claim(1000, 50)
	if d4 != 1050 {
		t.Fatalf("d4 = %d, want 1050", d4)
	}
	if r.BusyTime() != 350 {
		t.Fatalf("busy = %d", r.BusyTime())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collide too often: %d", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	f := func(skip uint8) bool {
		for i := 0; i < int(skip); i++ {
			r.Uint64()
		}
		v := r.Float64()
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGMoments(t *testing.T) {
	r := NewRNG(7)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := r.Float64()
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %f", mean)
	}
	varr := sum2/n - mean*mean
	if math.Abs(varr-1.0/12) > 0.01 {
		t.Fatalf("uniform variance = %f", varr)
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(9)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(250)
	}
	mean := sum / n
	if math.Abs(mean-250) > 10 {
		t.Fatalf("exp mean = %f, want ~250", mean)
	}
}

func TestRNGParetoTail(t *testing.T) {
	r := NewRNG(11)
	const n = 100000
	over := 0
	for i := 0; i < n; i++ {
		v := r.Pareto(1, 2)
		if v < 1 {
			t.Fatalf("pareto below xm: %f", v)
		}
		if v > 10 {
			over++
		}
	}
	// P(X > 10) = (1/10)^2 = 1%.
	frac := float64(over) / n
	if frac < 0.005 || frac > 0.02 {
		t.Fatalf("pareto tail fraction = %f, want ~0.01", frac)
	}
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(3)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn did not cover range: %v", seen)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	a := NewRNG(5)
	child := a.Split()
	// Parent and child streams should differ.
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("split streams identical: %d collisions", same)
	}
}

func TestDurationConversions(t *testing.T) {
	if FromNanos(1.5) != 1500*Picosecond {
		t.Fatalf("FromNanos(1.5) = %d", FromNanos(1.5))
	}
	d := 1500 * Nanosecond
	if d.Microseconds() != 1.5 {
		t.Fatalf("Microseconds = %f", d.Microseconds())
	}
	if got := (2 * Microsecond).String(); got != "2.000us" {
		t.Fatalf("String = %q", got)
	}
	if got := (500 * Picosecond).String(); got != "500ps" {
		t.Fatalf("String = %q", got)
	}
}

func TestTimeArithmetic(t *testing.T) {
	f := func(a, b int32) bool {
		t0 := Time(a)
		d := Duration(b)
		return t0.Add(d).Sub(t0) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
