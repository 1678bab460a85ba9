// Package wire is the binary codec of every serialized format in the
// toolchain: objects, linked images, jams and packages. Their bytes come
// from disk or the fabric, so a Reader never reads past its input, latches
// its first failure as a typed *Error, refuses a count the bytes left
// cannot hold, and refuses leftover bytes: a decoder accepts exactly what
// its encoder writes. Each format opens with a u32 magic. Integers are
// little-endian; a string is a u16 length and its bytes, a blob a u32
// length and its bytes, a flag one byte that is 0 or 1.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// MaxStr is the longest string Writer.Str encodes: its length is a u16.
// The layer that makes a name (an identifier, a symbol, a package or
// element name) refuses a longer one, so every encoding decodes.
const MaxStr = math.MaxUint16

// Error is a decode failure: which format, which field, and where.
type Error struct {
	Format string // e.g. "elfobj"
	Field  string // the field that could not be read or was rejected
	// Off is where the reader stood: at the start of a field it could not
	// read, or just past the one its decoder rejected.
	Off int
	Err error
}

func (e *Error) Error() string {
	return fmt.Sprintf("%s: %s at offset %d: %v", e.Format, e.Field, e.Off, e.Err)
}

//tclint:allow deadexport errors.As and errors.Is call it through an interface inside package errors
func (e *Error) Unwrap() error { return e.Err }

// Reader decodes one format. Once it has failed, every read returns a
// zero value and Count returns 0, so a decoder reads its whole schema
// straight through and ends with Finish.
type Reader struct {
	format string
	in     []byte
	off    int
	err    error // nil or an *Error
}

// NewReader returns a Reader over in, naming format in its errors, that
// has read the format's magic and refused any other.
func NewReader(format string, magic uint32, in []byte) *Reader {
	r := &Reader{format: format, in: in}
	if m := r.U32("magic"); m != magic {
		r.Fail("magic", fmt.Errorf("bad magic %#x, want %#x", m, magic))
	}
	return r
}

// Fail latches a non-nil err against field unless the reader has already
// failed. Decoders call it for a value they read but cannot accept.
func (r *Reader) Fail(field string, err error) {
	if r.err == nil && err != nil {
		r.err = &Error{Format: r.format, Field: field, Off: r.off, Err: err}
	}
}

// Done returns the latched failure or, failing none, refuses any bytes
// left unread.
func (r *Reader) Done() error {
	if left := len(r.in) - r.off; left > 0 {
		r.Fail("end", fmt.Errorf("%d byte(s) past the end", left))
	}
	return r.err
}

// Finish ends a decode: v, or nil and the error if Done reports one.
func Finish[T any](r *Reader, v *T) (*T, error) {
	if err := r.Done(); err != nil {
		return nil, err
	}
	return v, nil
}

// take returns the next n bytes, capacity-limited so an append cannot
// reach past them, or nil once the reader has failed.
func (r *Reader) take(field string, n int) []byte {
	if left := len(r.in) - r.off; r.err == nil && n > left {
		r.Fail(field, fmt.Errorf("need %d bytes, have %d", n, left))
	}
	if r.err != nil {
		return nil
	}
	r.off += n
	return r.in[r.off-n : r.off : r.off]
}

var zeros [4]byte

// word reads an n-byte integer field, all zeros once the reader has failed.
func (r *Reader) word(field string, n int) []byte {
	if b := r.take(field, n); b != nil {
		return b
	}
	return zeros[:n]
}

func (r *Reader) U8(field string) uint8   { return r.word(field, 1)[0] }
func (r *Reader) U16(field string) uint16 { return binary.LittleEndian.Uint16(r.word(field, 2)) }
func (r *Reader) U32(field string) uint32 { return binary.LittleEndian.Uint32(r.word(field, 4)) }

// Bool reads a flag byte; anything but 0 or 1 is refused.
func (r *Reader) Bool(field string) bool {
	v := r.U8(field)
	if v > 1 {
		r.Fail(field, fmt.Errorf("flag byte %d, want 0 or 1", v))
	}
	return v == 1
}

func (r *Reader) Str(field string) string { return string(r.take(field, int(r.U16(field)))) }

// Bytes reads a blob as a view of the input: copy it to keep it.
func (r *Reader) Bytes(field string) []byte { return r.take(field, int(r.U32(field))) }

// Count reads a list length and refuses it when it is over max or when
// the bytes left cannot hold that many entries of at least minBytesEach
// bytes, so whatever a decoder sizes from it is in proportion to its input.
func (r *Reader) Count(field string, max, minBytesEach int) int {
	n := int(r.U32(field))
	switch left := len(r.in) - r.off; {
	case n > max:
		r.Fail(field, fmt.Errorf("count %d over the cap of %d", n, max))
	case n*minBytesEach > left:
		r.Fail(field, fmt.Errorf("count %d needs at least %d bytes, have %d", n, n*minBytesEach, left))
	default:
		return n
	}
	return 0
}

// Make returns n zero entries to decode a counted list into, nil when n is
// 0: a decoded empty list is nil, as its builder leaves it.
func Make[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, n)
}

// Writer is the encoding side: the bytes written so far, which a function
// returning []byte can return as they are.
type Writer []byte

// NewWriter starts an encoding with the format's magic.
func NewWriter(magic uint32) Writer { return binary.LittleEndian.AppendUint32(nil, magic) }

func (w *Writer) U8(v uint8)   { *w = append(*w, v) }
func (w *Writer) U16(v uint16) { *w = binary.LittleEndian.AppendUint16(*w, v) }
func (w *Writer) U32(v uint32) { *w = binary.LittleEndian.AppendUint32(*w, v) }
func (w *Writer) Count(n int)  { w.U32(uint32(n)) }

func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

func (w *Writer) Str(s string) {
	w.U16(uint16(len(s)))
	*w = append(*w, s...)
}

func (w *Writer) Bytes(p []byte) {
	w.U32(uint32(len(p)))
	*w = append(*w, p...)
}
