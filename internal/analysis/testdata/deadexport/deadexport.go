// Fixture: deadexport's rules, one case each. The fixture claims an
// import path under internal/, where the rule applies; its own non-test
// files are the only callers it has.
package fixture

// Dead has no caller at all.
func Dead() {} // want `exported func Dead has no caller in a non-test file of the module`

// TestOnly is called only from deadexport_test.go, which does not count.
func TestOnly() int { return 1 } // want `exported func TestOnly has no caller`

// Port is an interface type: a method that makes a type satisfy it is live.
type Port interface {
	Label() string
	Land(n int) int
}

// Direct satisfies Port with methods of its own.
type Direct struct{}

func (Direct) Label() string  { return "direct" }
func (Direct) Land(n int) int { return n }

// Extra is a method no caller and no interface reaches.
func (Direct) Extra() {} // want `exported method Direct.Extra has no caller`

// Host has Land but no Label, so it is no Port itself; NIC embeds it and
// is one, which keeps Host.Land live by promotion.
type Host struct{}

func (*Host) Land(n int) int { return n }

type NIC struct {
	Host
}

func (*NIC) Label() string { return "nic" }

var _ = []Port{Direct{}, &NIC{}}

// Endpoint.Put is called only through the anonymous interface in put.
type Endpoint struct{}

func (*Endpoint) Put(b []byte) error { return nil }

func put(ab interface{ Put([]byte) error }) error { return ab.Put(nil) }

var _ = put(&Endpoint{})

// Shelf is generic: its Get is reached through the instantiation Shelf[int].
type Shelf[T any] struct{ items []T }

func (s *Shelf[T]) Get() (T, bool) {
	var zero T
	if len(s.items) == 0 {
		return zero, false
	}
	return s.items[0], true
}

var ints Shelf[int]

var _, _ = ints.Get()

// Kind's members name positions in a sequence; none needs a caller.
type Kind uint8

const (
	KindA Kind = iota
	KindB
	KindC
)

// Hook is kept for another package's tests, and says so.
//
//tclint:allow deadexport another package's tests read it
func Hook() int { return 2 }

// Live has a caller, so the directive above it waives nothing.
//
//tclint:allow deadexport nothing to waive // want `stale //tclint:allow: no deadexport diagnostic here to suppress`
func Live() int { return 3 }

var _ = Live()
