package tenant

import (
	"math"
	"testing"

	"twochains/internal/sim"
)

func TestRegistryValidation(t *testing.T) {
	g := NewRegistry(4)
	if _, err := g.Add(Config{Name: "", Weight: 1}); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := g.Add(Config{Name: "a", Weight: 0}); err == nil {
		t.Fatal("zero weight accepted")
	}
	if _, err := g.Add(Config{Name: "a", Weight: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Add(Config{Name: "a", Weight: 1}); err == nil {
		t.Fatal("duplicate name accepted")
	}
	for _, a := range []Admission{
		{RatePerSec: 0},
		{RatePerSec: math.NaN()},
		{RatePerSec: math.Inf(1)},
		{RatePerSec: 1000, Burst: math.NaN()},
		{RatePerSec: 1000, Burst: math.Inf(1)},
		{RatePerSec: 1000, Burst: -1},
	} {
		if _, err := g.Add(Config{Name: "b", Weight: 1, Admission: &a}); err == nil {
			t.Fatalf("admission %+v accepted", a)
		}
	}
	b, err := g.Add(Config{Name: "b", Weight: 1, Admission: &Admission{RatePerSec: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	if b.ID != 1 {
		t.Fatalf("dense ID = %d, want 1", b.ID)
	}
	if b.Admission.Burst <= 0 {
		t.Fatalf("burst not defaulted: %v", b.Admission.Burst)
	}
	if got, ok := g.Lookup("a"); !ok || got.Weight != 2 {
		t.Fatalf("lookup a = %+v, %v", got, ok)
	}
}

func TestQualified(t *testing.T) {
	if q := Qualified("gold", "kvstore"); q != "gold::kvstore" {
		t.Fatalf("Qualified = %q", q)
	}
}

func TestBucketRefillAndDrop(t *testing.T) {
	g := NewRegistry(2)
	tn, err := g.Add(Config{Name: "t", Weight: 1,
		Admission: &Admission{RatePerSec: 1000, Burst: 4}})
	if err != nil {
		t.Fatal(err)
	}
	now := sim.Time(0)
	// Burst capacity admits 4, then drops.
	for i := 0; i < 4; i++ {
		if d := tn.Admit(0, now, 1); !d.OK {
			t.Fatalf("admit %d rejected", i)
		}
	}
	if d := tn.Admit(0, now, 1); d.OK {
		t.Fatal("empty bucket admitted")
	}
	// 1000 msgs/s = 1 token per ms: after 2 ms two more pass.
	now = now.Add(2 * sim.Millisecond)
	for i := 0; i < 2; i++ {
		if d := tn.Admit(0, now, 1); !d.OK {
			t.Fatalf("refilled admit %d rejected", i)
		}
	}
	if d := tn.Admit(0, now, 1); d.OK {
		t.Fatal("over-refilled bucket admitted")
	}
	// Node 1's bucket is independent of node 0's.
	if d := tn.Admit(1, now, 4); !d.OK {
		t.Fatal("per-node bucket not independent")
	}
	st := tn.Stats()
	if st.Admitted != 10 || st.Dropped != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDeferRetryHint(t *testing.T) {
	g := NewRegistry(1)
	tn, err := g.Add(Config{Name: "t", Weight: 1,
		Admission: &Admission{RatePerSec: 1000, Burst: 1, Policy: Defer}})
	if err != nil {
		t.Fatal(err)
	}
	now := sim.Time(0)
	if d := tn.Admit(0, now, 1); !d.OK {
		t.Fatal("first admit rejected")
	}
	d := tn.Admit(0, now, 1)
	if d.OK || d.RetryAfter <= 0 {
		t.Fatalf("defer decision = %+v", d)
	}
	// The hint is honest: at now+RetryAfter the call passes.
	if d2 := tn.Admit(0, now.Add(d.RetryAfter), 1); !d2.OK {
		t.Fatalf("retry at hinted time rejected")
	}
	ae := tn.Reject(d)
	if !ae.Deferred || ae.RetryAfter != d.RetryAfter || ae.Tenant != "t" {
		t.Fatalf("AdmissionError = %+v", ae)
	}
	if tn.Stats().Deferred != 1 {
		t.Fatalf("deferred count = %d", tn.Stats().Deferred)
	}
}

func TestAdmitDeterminism(t *testing.T) {
	run := func() []bool {
		g := NewRegistry(1)
		tn, _ := g.Add(Config{Name: "t", Weight: 1,
			Admission: &Admission{RatePerSec: 12345, Burst: 3.5}})
		var out []bool
		now := sim.Time(0)
		for i := 0; i < 200; i++ {
			now = now.Add(sim.Duration(i%7) * 13 * sim.Microsecond)
			out = append(out, tn.Admit(0, now, 1+i%3).OK)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged", i)
		}
	}
}
