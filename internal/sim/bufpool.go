package sim

import "math/bits"

// bufClasses bounds the pooled size classes: 1<<23 = 8 MB. Larger buffers
// are so rare in a frame-granular fabric that pooling them would only pin
// memory.
const bufClasses = 24

// BufPool recycles byte buffers by power-of-two size class. It is the
// scratch allocator for transient per-message staging (a fabric's in-flight
// put payloads): Get returns a buffer of exactly n bytes whose contents are
// UNSPECIFIED — callers overwrite it fully — and Put recycles it.
//
// The pool is not safe for concurrent use; it is meant to be owned by a
// single-threaded component (one fabric, one engine), which keeps Get/Put
// at slice-append cost with no interface boxing.
type BufPool struct {
	classes [bufClasses][][]byte
}

// Get returns a buffer of length n. Contents are unspecified.
func (p *BufPool) Get(n int) []byte {
	if n <= 0 {
		return nil
	}
	k := bits.Len(uint(n - 1)) // smallest k with 1<<k >= n
	if k >= bufClasses {
		return make([]byte, n)
	}
	if l := p.classes[k]; len(l) > 0 {
		b := l[len(l)-1]
		l[len(l)-1] = nil
		p.classes[k] = l[:len(l)-1]
		return b[:n]
	}
	// Power-of-two capacity keeps the buffer recyclable through Put's
	// size classing.
	return make([]byte, n, 1<<k)
}

// Put recycles a buffer previously returned by Get. Buffers whose capacity
// is not an exact pooled size class (foreign buffers) are dropped.
func (p *BufPool) Put(b []byte) {
	c := cap(b)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	k := bits.Len(uint(c)) - 1
	if k >= bufClasses {
		return
	}
	p.classes[k] = append(p.classes[k], b[:0])
}
