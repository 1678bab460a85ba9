// Fixture: neverset's rules, one case each. The fixture claims an import
// path under internal/, where the rule applies; its own non-test files
// are the only setters it has.
package fixture

import "sync"

// Setters: each field below is set one way and read nowhere else.
type setters struct {
	assigned int
	viaPtr   int
	opAssign int
	inc      int
	dec      int
	keyed    int
	addr     int
	arr      [4]int
	mu       sync.Mutex
	// stats is set through its field: s.stats.n++ sets both.
	stats counts
	// elem is set through an index: an array is a value.
	elem [2]int
}

type counts struct {
	n int
}

// positional is set by a positional composite literal, elided in a
// []*positional literal.
type positional struct {
	a, b int
}

func set(s setters, p *setters) []int {
	s.assigned = 1
	p.viaPtr = 2
	s.opAssign += 3
	s.inc++
	s.dec--
	s.stats.n++
	(s.elem)[1] = 4
	bump(&s.addr)
	s.mu.Lock()
	return s.arr[:]
}

func bump(p *int) { *p++ }

var (
	_ = setters{keyed: 1}
	_ = []*positional{{1, 2}}
)

// Never set: each field below is only read, or set only where a set
// does not count.
type unset struct {
	read int // want `field unset.read is never set`
	// ptr is read to set a field through it: that sets the pointee's
	// field, not ptr.
	ptr *counts2 // want `field unset.ptr is never set`
	// slice is read to set an element: a slice is a header.
	slice []int // want `field unset.slice is never set`
	// view is slice-read, and viewPtr's method has a value receiver.
	view    []int    // want `field unset.view is never set`
	viewPtr valueRcv // want `field unset.viewPtr is never set`
}

type counts2 struct{ n int }

type valueRcv struct{ n int }

func (v valueRcv) get() int { return v.n }

func read(u *unset) int {
	u.ptr.n = 1
	u.slice[0] = 2
	return u.read + len(u.view[1:]) + u.viewPtr.get()
}

var _ = valueRcv{n: 1}

// testSet is set only from neverset_test.go, which does not count.
type testSet struct {
	field int // want `field testSet.field is never set`
}

func (t testSet) get() int { return t.field }

// Exempt: an embedded field, an anonymous struct type's fields, and a
// type declared in a test file (neverset_test.go's testOnly).
type outer struct {
	counts3
}

type counts3 struct{ m int }

var _ = outer{}.m + counts3{m: 1}.m

var anon struct {
	a int
	b struct{ c int }
}

func readAnon() int { return anon.a + anon.b.c }

// Waivers: a field set by a setter the lint cannot see is waived; a
// waiver on a field that is set is stale.
type waived struct {
	a int //tclint:allow neverset a setter the lint cannot see
	//tclint:allow neverset nothing to waive // want `stale //tclint:allow: no neverset diagnostic here to suppress`
	b int
}

var _ = waived{b: 1}.a
