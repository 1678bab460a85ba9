package mem

import (
	"math/bits"
	"slices"
)

// A Shelf holds values between owners, last in first out: Put files a value
// under its length, and Get takes back the latest one filed under exactly
// that length. Lengths are classed by bit length, so a Get searches only
// values within a factor of two of its own. Max caps the summed lengths
// held (bytes, for byte arrays; 0 is no cap): a refused Put leaves the value
// to the collector. A Shelf is not safe for concurrent use.
type Shelf[T any] struct {
	Max, held int
	classes   [][]shelved[T] // by bit length, up to the longest put yet
}

type shelved[T any] struct {
	v T
	n int
}

// Get takes the latest value put under length n off the shelf.
func (s *Shelf[T]) Get(n int) (v T, ok bool) {
	if k := bits.Len(uint(n)); k < len(s.classes) {
		c := s.classes[k]
		for i := len(c) - 1; i >= 0; i-- {
			if c[i].n == n {
				v, s.held = c[i].v, s.held-n
				s.classes[k] = slices.Delete(c, i, i+1)
				return v, true
			}
		}
	}
	return v, false
}

// Put files v under length n and reports whether it fit under Max.
func (s *Shelf[T]) Put(v T, n int) bool {
	if s.Max > 0 && s.held+n > s.Max {
		return false
	}
	k := bits.Len(uint(n))
	if k >= len(s.classes) {
		s.classes = append(s.classes, make([][]shelved[T], k+1-len(s.classes))...)
	}
	s.classes[k] = append(s.classes[k], shelved[T]{v, n})
	s.held += n
	return true
}

// GetBytes returns n >= 0 bytes, contents unspecified, of the latest array
// put of capacity n rounded up to a power of two, or of a new one.
func GetBytes(s *Shelf[[]byte], n int) []byte {
	c := 1 << bits.Len(uint(n-1))
	if b, ok := s.Get(c); ok {
		return b[:n]
	}
	return make([]byte, n, c)
}

// PutBytes files b by capacity if that is a power of two (what GetBytes
// asks for) and reports whether the shelf kept it.
func PutBytes(s *Shelf[[]byte], b []byte) bool {
	c := cap(b)
	return c != 0 && c&(c-1) == 0 && s.Put(b[:c], c)
}
