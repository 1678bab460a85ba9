package mem

import (
	"sync"
	"testing"
)

// TestShelfLastInFirstOut: within a class a Get takes the most recently put
// value of exactly its length, and a Get that finds only other lengths
// leaves the shelf as it was.
func TestShelfLastInFirstOut(t *testing.T) {
	var s Shelf[string]
	// 5, 6 and 7 share a class (bit length 3); 4 does too and is never put.
	for _, p := range []struct {
		v string
		n int
	}{{"a5", 5}, {"b6", 6}, {"c5", 5}, {"d7", 7}} {
		if !s.Put(p.v, p.n) {
			t.Fatalf("Put(%s) refused by a shelf with no cap", p.v)
		}
	}
	if v, ok := s.Get(4); ok {
		t.Fatalf("Get(4) = %q from a shelf holding no value of length 4", v)
	}
	for _, want := range []struct {
		n int
		v string
	}{{5, "c5"}, {7, "d7"}, {5, "a5"}, {6, "b6"}} {
		if v, ok := s.Get(want.n); !ok || v != want.v {
			t.Fatalf("Get(%d) = %q, %v; want %q", want.n, v, ok, want.v)
		}
	}
	if v, ok := s.Get(5); ok {
		t.Fatalf("Get(5) = %q from an empty shelf", v)
	}
	if s.held != 0 {
		t.Fatalf("an empty shelf holds a length of %d", s.held)
	}
}

// TestShelfByteCap: a byte array that would take the shelf past Max is
// refused, one that lands exactly on it is kept, and a Get frees the bytes
// it takes.
func TestShelfByteCap(t *testing.T) {
	s := Shelf[[]byte]{Max: 3 << 16}
	a, b, c := make([]byte, 1<<17), make([]byte, 1<<17), make([]byte, 1<<16)
	if !PutBytes(&s, a) {
		t.Fatal("a 128 KB array refused by an empty 192 KB shelf")
	}
	if PutBytes(&s, b) {
		t.Fatal("a 128 KB array kept by a shelf holding 128 of 192 KB")
	}
	if !PutBytes(&s, c) {
		t.Fatal("a 64 KB array refused by a shelf holding 128 of 192 KB")
	}
	if got := GetBytes(&s, 1<<17); &got[0] != &a[0] {
		t.Fatal("GetBytes(128 KB) did not take the 128 KB array kept")
	}
	if !PutBytes(&s, b) {
		t.Fatal("a Get did not free the bytes of the array it took")
	}
	if s.held != 3<<16 {
		t.Fatalf("the shelf holds %d bytes, want %d", s.held, 3<<16)
	}
}

// TestShelfBytes: PutBytes keeps an array by capacity, and only a
// power-of-two one; GetBytes hands it back for any length that rounds up to
// that capacity, and allocates a power-of-two array when it has none.
func TestShelfBytes(t *testing.T) {
	var s Shelf[[]byte]
	for _, c := range []int{0, 3 << 14, 1<<16 + 1} {
		if PutBytes(&s, make([]byte, 0, c)) {
			t.Errorf("PutBytes kept an array of capacity %d", c)
		}
	}
	if s.held != 0 {
		t.Fatalf("the shelf holds %d bytes after refusing every array", s.held)
	}
	b := make([]byte, 10, 1<<16)
	if !PutBytes(&s, b) {
		t.Fatal("PutBytes refused a 64 KB array")
	}
	got := GetBytes(&s, 40000)
	if len(got) != 40000 || &got[0] != &b[0] {
		t.Fatalf("GetBytes(40000) returned %d bytes of another array, not the shelved 64 KB one", len(got))
	}
	fresh := GetBytes(&s, 40000)
	if len(fresh) != 40000 || cap(fresh) != 1<<16 || &fresh[0] == &b[0] {
		t.Fatalf("GetBytes on an empty shelf returned len %d cap %d, want a new 64 KB array", len(fresh), cap(fresh))
	}
	if b := GetBytes(&s, 0); len(b) != 0 {
		t.Fatalf("GetBytes(0) returned %d bytes", len(b))
	}
}

// TestBackingShelfConcurrent: two goroutines build, fill and release spaces
// on the process shelf at once, as two simulations side by side do; -race
// checks the locking, and every space still reads zero where it was not
// written.
func TestBackingShelfConcurrent(t *testing.T) {
	const rounds, capacity = 50, 1 << 17
	before := BackingPoolStats()
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				as := NewAddressSpace(capacity)
				va, err := as.AllocPages("all", capacity, PermRW)
				if err == nil {
					var v uint64
					if v, err = as.ReadU64(va + capacity/2); err == nil && v != 0 {
						t.Errorf("a fresh space reads 0x%x: a previous occupant's bytes", v)
					}
				}
				if err == nil {
					err = as.WriteU64(va+capacity/2, ^uint64(0))
				}
				if err != nil {
					errs <- err
					return
				}
				as.Release()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	after := BackingPoolStats()
	if n := after.Released - before.Released; n != 2*rounds {
		t.Fatalf("%d Releases put %d backings on the shelf", 2*rounds, n)
	}
	if after.Recycled == before.Recycled {
		t.Fatal("no space grew into a released backing")
	}
}
