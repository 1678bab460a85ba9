package mem

import (
	"bytes"
	"errors"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
)

// The reuse invariant: a space that grew into a recycled backing behaves,
// through every accessor, exactly like one whose memory came zeroed from
// the allocator — no byte of a previous occupant is observable. The tests
// below make the previous occupant as loud as possible: every backing
// that goes on the shelf here is filled with poison first.

const poison = 0xA5

// fillPoison overwrites all of b with the poison byte.
func fillPoison(b []byte) {
	if len(b) == 0 {
		return
	}
	b[0] = poison
	for n := 1; n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
}

// poisonedBacking returns a full backing of the class that holds c bytes.
func poisonedBacking(c int) []byte {
	b := make([]byte, 1<<bits.Len(uint(c-1)))
	fillPoison(b)
	return b
}

// ownShelf gives the caller an empty backing shelf of its own, so what a
// space draws is exactly what the caller put there, until the caller runs
// the function returned, which puts the process shelf back.
func ownShelf() (restore func()) {
	backingsMu.Lock()
	defer backingsMu.Unlock()
	saved := backings
	backings = Shelf[[]byte]{Max: saved.Max}
	return func() {
		backingsMu.Lock()
		defer backingsMu.Unlock()
		backings = saved
	}
}

// seedShelf puts one poisoned backing of every class a space of the given
// capacity can grow through on the shelf, and returns them by capacity.
func seedShelf(capacity int) map[int]*byte {
	seeded := map[int]*byte{}
	for c := 1 << 16; ; c <<= 1 {
		if c > capacity {
			c = capacity
		}
		b := poisonedBacking(c)
		seeded[cap(b)] = &b[0]
		PutBytes(&backings, b)
		if c == capacity {
			return seeded
		}
	}
}

// seedTopOnly puts one poisoned backing on the shelf, of the class that
// holds a whole space of the given capacity, so a space's first growth — a
// page, say — draws an array many times the request.
func seedTopOnly(capacity int) map[int]*byte {
	b := poisonedBacking(capacity)
	PutBytes(&backings, b)
	return map[int]*byte{cap(b): &b[0]}
}

// releasePoisoned is the test hook on the way onto the shelf: it poisons
// the whole backing, mapped prefix and spare capacity alike, then releases.
func releasePoisoned(as *AddressSpace) {
	fillPoison(as.data[:cap(as.data)])
	as.Release()
}

// sameErr compares two accessor outcomes: faults field by field, anything
// else by message.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	var fa, fb *Fault
	if errors.As(a, &fa) != errors.As(b, &fb) {
		return false
	}
	if fa != nil {
		return *fa == *fb
	}
	return a.Error() == b.Error()
}

// stream doles out the driver's decisions from a byte string; an
// exhausted stream reads as zeroes.
type stream struct {
	b []byte
	i int
}

func (s *stream) done() bool { return s.i >= len(s.b) }

func (s *stream) u8() int {
	if s.done() {
		return 0
	}
	v := s.b[s.i]
	s.i++
	return int(v)
}

func (s *stream) u16() int { return s.u8()<<8 | s.u8() }

// va picks an address: mostly near a page boundary of the space (so
// accesses straddle), sometimes anywhere, sometimes outside it.
func (s *stream) va(capacity int) uint64 {
	pages := capacity / PageSize
	switch sel := s.u8(); {
	case sel < 160:
		return Base + uint64((s.u8()%(pages+1))*PageSize+s.u8()%32-16)
	case sel < 240:
		return Base + uint64(s.u16()*8%capacity)
	case sel < 248:
		return uint64(s.u16()) // below Base
	default:
		return Base + uint64(capacity-8+s.u8()%24)
	}
}

// size picks a length: a few bytes, a page or so, or several pages.
func (s *stream) size() int {
	switch sel := s.u8(); {
	case sel < 100:
		return sel%17 + 1
	case sel < 200:
		return PageSize - 8 + s.u8()%64
	default:
		return s.u16() % (5 * PageSize)
	}
}

func (s *stream) perm() Perm { return Perm(s.u8()) % (PermRWX + 1) }

// recycleDiff drives one op sequence against a space on poisoned recycled
// backings and against a reference that never sees the shelf, and fails on
// the first difference in any value, error, permission or final byte.
func recycleDiff(t *testing.T, prog []byte) {
	s := &stream{b: prog}
	mode := s.u8()
	capacity := 1 << 18
	if mode&1 != 0 {
		capacity = 48 * PageSize // the last growth step is clamped, not a power of two
	}
	defer ownShelf()()
	seed := seedShelf
	if mode&2 != 0 {
		seed = seedTopOnly // the first growth draws a whole-space array
	}
	seeded := seed(capacity)
	got := NewAddressSpace(capacity)
	defer releasePoisoned(got)
	// The reference is mapped in full from the allocator up front: it
	// never grows, so it never draws from the shelf.
	want := NewAddressSpace(capacity)
	want.data = make([]byte, capacity)

	fill := func(n int) []byte {
		b := make([]byte, n)
		seed := s.u8()
		for i := range b {
			b[i] = byte(seed + i*7)
		}
		return b
	}
	for op := 0; !s.done() && op < 400; op++ {
		switch s.u8() % 16 {
		case 0:
			size, align, perm := s.size(), 1<<(s.u8()%14), s.perm()
			g, gerr := got.Alloc("r", size, align, perm)
			w, werr := want.Alloc("r", size, align, perm)
			if g != w || !sameErr(gerr, werr) {
				t.Fatalf("op %d Alloc(%d,%d,%v): got 0x%x,%v want 0x%x,%v", op, size, align, perm, g, gerr, w, werr)
			}
		case 1:
			size, perm := s.size(), s.perm()
			g, gerr := got.AllocPages("p", size, perm)
			w, werr := want.AllocPages("p", size, perm)
			if g != w || !sameErr(gerr, werr) {
				t.Fatalf("op %d AllocPages(%d,%v): got 0x%x,%v want 0x%x,%v", op, size, perm, g, gerr, w, werr)
			}
		case 2:
			va, size, perm := s.va(capacity), s.size(), s.perm()
			if gerr, werr := got.Protect(va, size, perm), want.Protect(va, size, perm); !sameErr(gerr, werr) {
				t.Fatalf("op %d Protect(0x%x,%d,%v): got %v want %v", op, va, size, perm, gerr, werr)
			}
		case 3:
			va, width := s.va(capacity), s.u8()%4
			rd := [4]func(*AddressSpace, uint64) (uint64, error){
				(*AddressSpace).ReadU8, (*AddressSpace).ReadU16, (*AddressSpace).ReadU32, (*AddressSpace).ReadU64}[width]
			g, gerr := rd(got, va)
			w, werr := rd(want, va)
			if g != w || !sameErr(gerr, werr) {
				t.Fatalf("op %d ReadU%d(0x%x): got 0x%x,%v want 0x%x,%v", op, 8<<width, va, g, gerr, w, werr)
			}
		case 4:
			va, width, v := s.va(capacity), s.u8()%4, uint64(s.u16())*0x0001000100010001
			wr := [4]func(*AddressSpace, uint64, uint64) error{
				(*AddressSpace).WriteU8, (*AddressSpace).WriteU16, (*AddressSpace).WriteU32, (*AddressSpace).WriteU64}[width]
			if gerr, werr := wr(got, va, v), wr(want, va, v); !sameErr(gerr, werr) {
				t.Fatalf("op %d WriteU%d(0x%x): got %v want %v", op, 8<<width, va, gerr, werr)
			}
		case 5:
			// The fast accessors may decline where the reference would not
			// (a stale page); what they do deliver must be the checked value.
			va := s.va(capacity)
			if g, ok := got.FastRead64(va); ok {
				if w, werr := want.ReadU64(va); werr != nil || g != w {
					t.Fatalf("op %d FastRead64(0x%x) = 0x%x, checked read says 0x%x,%v", op, va, g, w, werr)
				}
			}
		case 6:
			va, v := s.va(capacity), uint64(s.u16())*0x0101010101010101
			if got.FastWrite64(va, v) {
				if werr := want.WriteU64(va, v); werr != nil {
					t.Fatalf("op %d FastWrite64(0x%x) stored where the checked write faults: %v", op, va, werr)
				}
			}
		case 7:
			va, n, perm := s.va(capacity), s.u8()%128+1, s.perm()|PermR
			if g := got.FastSpan(va, n, perm); g != nil {
				if w := want.FastSpan(va, n, perm); !bytes.Equal(g, w) {
					t.Fatalf("op %d FastSpan(0x%x,%d,%v): got % x want % x", op, va, n, perm, g, w)
				}
			}
		case 8, 9, 10:
			va, size, which := s.va(capacity), s.size(), s.u8()%3
			view := [3]func(*AddressSpace, uint64, int) ([]byte, error){
				(*AddressSpace).View, (*AddressSpace).ViewMut, (*AddressSpace).ViewDMA}[which]
			g, gerr := view(got, va, size)
			w, werr := view(want, va, size)
			if !bytes.Equal(g, w) || !sameErr(gerr, werr) {
				t.Fatalf("op %d view#%d(0x%x,%d): got %d bytes,%v want %d bytes,%v (first diff at %d)",
					op, which, va, size, len(g), gerr, len(w), werr, firstDiff(g, w))
			}
			if which != 0 && gerr == nil {
				// Store through the mutable and the DMA view, as jams' memcpy
				// and the NIC do.
				b := fill(len(g))
				copy(g, b)
				copy(w, b)
			}
		case 11, 12:
			va, size, dma := s.va(capacity), s.size(), s.u8()&1 != 0
			rd := (*AddressSpace).ReadBytes
			if dma {
				rd = (*AddressSpace).ReadBytesDMA
			}
			g, gerr := rd(got, va, size)
			w, werr := rd(want, va, size)
			if !bytes.Equal(g, w) || !sameErr(gerr, werr) {
				t.Fatalf("op %d ReadBytes(dma=%v)(0x%x,%d): got %v want %v (first diff at %d)",
					op, dma, va, size, gerr, werr, firstDiff(g, w))
			}
		case 13, 14:
			va, dma := s.va(capacity), s.u8()&1 != 0
			b := fill(s.size())
			wr := (*AddressSpace).WriteBytes
			if dma {
				wr = (*AddressSpace).WriteBytesDMA // lands in read-only pages too
			}
			if gerr, werr := wr(got, va, b), wr(want, va, b); !sameErr(gerr, werr) {
				t.Fatalf("op %d WriteBytes(dma=%v)(0x%x,%d): got %v want %v", op, dma, va, len(b), gerr, werr)
			}
		case 15:
			va, size := s.va(capacity), s.size()
			gp, gok := got.PermAt(va)
			wp, wok := want.PermAt(va)
			if gp != wp || gok != wok {
				t.Fatalf("op %d PermAt(0x%x): got %v,%v want %v,%v", op, va, gp, gok, wp, wok)
			}
			if gerr, werr := got.FetchCheck(va, size), want.FetchCheck(va, size); !sameErr(gerr, werr) {
				t.Fatalf("op %d FetchCheck(0x%x,%d): got %v want %v", op, va, size, gerr, werr)
			}
			gs, gerr := got.ReadCString(va, 64)
			ws, werr := want.ReadCString(va, 64)
			if gs != ws || !sameErr(gerr, werr) {
				t.Fatalf("op %d ReadCString(0x%x): got %q,%v want %q,%v", op, va, gs, gerr, ws, werr)
			}
		}
	}

	if !reflect.DeepEqual(got.Regions(), want.Regions()) {
		t.Fatalf("layouts differ:\n got %v\nwant %v", got.Regions(), want.Regions())
	}
	for p := 0; p < capacity/PageSize; p++ {
		va := Base + uint64(p*PageSize)
		if gp, _ := got.PermAt(va); gp != want.perms[p] {
			t.Fatalf("page %d: permissions %v, want %v", p, gp, want.perms[p])
		}
	}
	g, err := got.ReadBytesDMA(Base, capacity)
	if err != nil {
		t.Fatal(err)
	}
	if i := firstDiff(g, want.data); i >= 0 {
		t.Fatalf("final contents differ at offset 0x%x (page %d): got 0x%02x want 0x%02x", i, i/PageSize, g[i], want.data[i])
	}
	if got.stale != 0 {
		t.Fatalf("%d pages still stale after every page was read", got.stale)
	}
	if want.stale != 0 || len(want.data) != capacity {
		t.Fatal("the reference space touched the shelf")
	}
	// Every growth drew the array seeded for its class, so the space ends
	// on the one of its final size.
	if b := got.data[:cap(got.data)]; &b[0] != seeded[cap(b)] {
		t.Fatalf("the space ends on a %d-byte backing that is not the one seeded for its class", cap(b))
	}
}

// firstDiff returns the first index at which a and b differ, -1 if equal.
func firstDiff(a, b []byte) int {
	if bytes.Equal(a, b) {
		return -1
	}
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// randomProg generates one driver input.
func randomProg(rng *rand.Rand) []byte {
	prog := make([]byte, 64+rng.Intn(2048))
	rng.Read(prog)
	return prog
}

func TestAddressSpaceRecycleDifferential(t *testing.T) {
	before := BackingPoolStats().Recycled
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 400; i++ {
		recycleDiff(t, randomProg(rng))
	}
	if BackingPoolStats().Recycled == before {
		t.Fatal("no sequence ran on a recycled backing: the differential covered nothing")
	}
}

func FuzzAddressSpaceRecycle(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		f.Add(randomProg(rng))
	}
	f.Fuzz(recycleDiff)
}

// TestFirstGrowthTakesLargerBacking: with nothing recycled in the class a
// space's first growth asks for, it takes the larger array the shelf does
// have, all of it stale, and never grows again: views taken either side
// of where the doubling chain used to copy (64 KB, 128 KB) stay aliased to
// the one backing through every later Alloc, and read zero, not poison.
func TestFirstGrowthTakesLargerBacking(t *testing.T) {
	const capacity = 1 << 18
	defer ownShelf()()
	top := seedTopOnly(capacity)[capacity]
	as := NewAddressSpace(capacity)
	va, err := as.AllocPages("first", PageSize, PermRW)
	if err != nil {
		t.Fatal(err)
	}
	if len(as.data) != capacity || &as.data[0] != top {
		t.Fatalf("first growth mapped %d bytes, not the %d-byte backing on the shelf", len(as.data), capacity)
	}
	if as.stale != capacity/PageSize {
		t.Fatalf("%d stale pages after the first growth, want all %d", as.stale, capacity/PageSize)
	}
	if _, ok := as.FastRead64(va); ok {
		t.Fatal("the fast path served a page nobody has zeroed")
	}
	type held struct {
		off int
		b   []byte
	}
	var views []held
	for _, edge := range []int{1 << 16, 1 << 17} {
		for as.brk < Base+uint64(edge+PageSize) {
			if _, err := as.AllocPages("more", 5*PageSize, PermRW); err != nil {
				t.Fatal(err)
			}
		}
		for _, off := range []int{edge - PageSize, edge - 16, edge} {
			v, err := as.ViewMut(Base+uint64(off), 32)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(v, make([]byte, 32)) {
				t.Fatalf("view at offset 0x%x reads % x: a previous occupant's bytes", off, v)
			}
			views = append(views, held{off, v})
		}
	}
	if _, err := as.AllocPages("rest", capacity-int(as.brk-Base), PermRW); err != nil {
		t.Fatal(err)
	}
	if &as.data[0] != top || len(as.data) != capacity {
		t.Fatal("the space grew again after drawing a whole-space backing")
	}
	for i, v := range views {
		v.b[0] = byte(i + 1)
		if got, err := as.ReadU8(Base + uint64(v.off)); err != nil || got != uint64(i+1) {
			t.Fatalf("the view taken at offset 0x%x no longer aliases the space: it stored %d, the space reads %d, %v",
				v.off, i+1, got, err)
		}
	}
	for off := 0; off < capacity; off += PageSize {
		if v, err := as.ReadU64(Base + uint64(off) + 64); err != nil || v != 0 {
			t.Fatalf("offset 0x%x reads 0x%x, %v: a previous occupant's bytes", off+64, v, err)
		}
	}
	if as.stale != 0 {
		t.Fatalf("%d pages still stale after every page was read", as.stale)
	}
	releasePoisoned(as)
}

// TestRecycledPagesReadZero is the invariant in its plainest form: write a
// space full, release it, and the next occupant of the same backing reads
// zeroes through the fast and the slow accessors alike.
func TestRecycledPagesReadZero(t *testing.T) {
	const capacity = 1 << 17
	first := NewAddressSpace(capacity)
	va, err := first.AllocPages("all", capacity, PermRW)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < capacity; off += 8 {
		if err := first.WriteU64(va+uint64(off), ^uint64(0)); err != nil {
			t.Fatal(err)
		}
	}
	backing := &first.data[0]
	first.Release()

	before := BackingPoolStats().Recycled
	as := NewAddressSpace(capacity)
	if va, err = as.AllocPages("all", capacity, PermRW); err != nil {
		t.Fatal(err)
	}
	if &as.data[0] != backing || BackingPoolStats().Recycled != before+1 {
		t.Fatal("the next space did not grow into the backing just released")
	}
	if as.stale != capacity/PageSize {
		t.Fatalf("%d stale pages after growing into a recycled backing, want %d", as.stale, capacity/PageSize)
	}
	if _, ok := as.FastRead64(va); ok {
		t.Fatal("the fast path served a page nobody has zeroed")
	}
	if as.FastWrite64(va+PageSize, 1) || as.FastSpan(va+2*PageSize, 64, PermR) != nil {
		t.Fatal("the fast path served a page nobody has zeroed")
	}
	for off := 0; off < capacity; off += 8 {
		if v, err := as.ReadU64(va + uint64(off)); err != nil || v != 0 {
			t.Fatalf("offset 0x%x reads 0x%x, %v: a previous occupant's bytes", off, v, err)
		}
	}
	if v, ok := as.FastRead64(va); !ok || v != 0 {
		t.Fatalf("a scrubbed page is not back on the fast path: 0x%x, %v", v, ok)
	}
}

// TestReleaseUnmaps: after Release every access is a typed out-of-bounds
// fault — never a panic, never a read of bytes the shelf now holds — and a
// second Release is harmless.
func TestReleaseUnmaps(t *testing.T) {
	as := NewAddressSpace(1 << 20)
	va, err := as.AllocPages("buf", 3*PageSize, PermRWX)
	if err != nil {
		t.Fatal(err)
	}
	if err := as.WriteU64(va, 42); err != nil {
		t.Fatal(err)
	}
	before := BackingPoolStats().Released
	as.Release()
	as.Release()
	if n := BackingPoolStats().Released - before; n != 1 {
		t.Errorf("two Releases of one space put %d backings on the shelf, want 1", n)
	}

	oob := func(what string, err error) {
		t.Helper()
		var f *Fault
		if !errors.As(err, &f) || !f.OOB {
			t.Errorf("%s after Release: %v, want an out-of-bounds fault", what, err)
		}
	}
	_, err = as.ReadU8(va)
	oob("ReadU8", err)
	_, err = as.ReadU16(va)
	oob("ReadU16", err)
	_, err = as.ReadU32(va)
	oob("ReadU32", err)
	_, err = as.ReadU64(va)
	oob("ReadU64", err)
	oob("WriteU8", as.WriteU8(va, 1))
	oob("WriteU16", as.WriteU16(va, 1))
	oob("WriteU32", as.WriteU32(va, 1))
	oob("WriteU64", as.WriteU64(va, 1))
	_, err = as.View(va, 8)
	oob("View", err)
	_, err = as.ViewMut(va, 8)
	oob("ViewMut", err)
	_, err = as.ViewDMA(va, 8)
	oob("ViewDMA", err)
	_, err = as.ReadBytes(va, 8)
	oob("ReadBytes", err)
	_, err = as.ReadBytesDMA(va, 8)
	oob("ReadBytesDMA", err)
	oob("WriteBytes", as.WriteBytes(va, []byte{1}))
	oob("WriteBytesDMA", as.WriteBytesDMA(va, []byte{1}))
	oob("FetchCheck", as.FetchCheck(va, 8))
	oob("Protect", as.Protect(va, 8, PermR))
	_, err = as.ReadCString(va, 8)
	oob("ReadCString", err)
	if _, ok := as.FastRead64(va); ok {
		t.Error("FastRead64 served a released space")
	}
	if as.FastWrite64(va, 1) || as.FastSpan(va, 8, PermR) != nil {
		t.Error("a fast path served a released space")
	}
	if _, ok := as.PermAt(va); ok {
		t.Error("PermAt reports a mapped page after Release")
	}
	if _, err := as.Alloc("more", 8, 8, PermRW); err == nil {
		t.Error("Alloc succeeded on a released space")
	}
	if r, ok := as.RegionFor(va); !ok || r.Name != "buf" {
		t.Error("the region table (diagnostics) did not survive Release")
	}
}
