// Fixture: writeonly's rules, one case each. The fixture claims an import
// path under internal/, where the rule applies; its own non-test files
// are the only readers it has.
package fixture

// Writes: each field below is only ever written, one form each.
type writes struct {
	assigned int // want `field writes.assigned is written but never read`
	opAssign int // want `field writes.opAssign is written but never read`
	inc      int // want `field writes.inc is written but never read`
	dec      int // want `field writes.dec is written but never read`
	keyed    int // want `field writes.keyed is written but never read`
	// stats is written through its field: s.stats.n++ writes both.
	stats counts // want `field writes.stats is written but never read`
	// arr is written through an index: an array is a value.
	arr [2]int // want `field writes.arr is written but never read`
}

type counts struct {
	n int // want `field counts.n is written but never read`
}

func write(w *writes) {
	w.assigned = 1
	w.opAssign += 2
	w.inc++
	w.dec--
	w.stats.n++
	(w.arr)[1] = 3
}

var _ = writes{keyed: 1}

// Reads: each field below is read one way.
type reads struct {
	selected int
	embedded
	// view is read because view.n is: its struct value is read.
	view counts2
	// ptr is read to write through it; so is a slice's header.
	ptr   *counts3
	slice []int
	// indexed is written, but its index operand reads pos.
	indexed [4]int // want `field reads.indexed is written but never read`
	pos     int
}

// embedded is read by promotion: r.promoted selects through it.
type embedded struct {
	promoted int
}

type counts2 struct{ n int }

type counts3 struct {
	n int // want `field counts3.n is written but never read`
}

func read(r *reads) int {
	r.ptr.n = 1
	r.slice[0] = 2
	r.indexed[r.pos] = 3
	return r.selected + r.promoted + r.view.n
}

// Port is an interface: an embedded field whose methods make its outer
// type satisfy it is read by the method set, though no selector names it.
type Port interface{ Label() string }

type host struct{}

func (host) Label() string { return "host" }

type nic struct {
	host
}

var _ Port = nic{}

// testRead is read only from writeonly_test.go, which does not count.
type testRead struct {
	field int // want `field testRead.field is written but never read`
}

var _ = testRead{field: 1}

// Anonymous struct types are out of scope: no field here is flagged.
var anon struct {
	a int
	b struct{ c int }
}

func writeAnon() {
	anon.a = 1
	anon.b.c = 2
}

// Waivers: a run of trailing waivers each cover their own line; a waiver
// on a field that is read is stale.
type waived struct {
	a int //tclint:allow writeonly a reader the lint cannot see
	b int //tclint:allow writeonly a reader the lint cannot see
	c int //tclint:allow writeonly a reader the lint cannot see
	//tclint:allow writeonly nothing to waive // want `stale //tclint:allow: no writeonly diagnostic here to suppress`
	d int
}

var _ = waived{a: 1, b: 2, c: 3}.d
