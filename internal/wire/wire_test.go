package wire

import (
	"errors"
	"reflect"
	"testing"
)

const testMagic = 0x54534554 // "TEST"

// framed returns body behind the test format's magic.
func framed(body ...byte) []byte { return append([]byte{'T', 'E', 'S', 'T'}, body...) }

func TestWriterReaderRoundTrip(t *testing.T) {
	w := NewWriter(testMagic)
	w.U8(7)
	w.U16(0xBEEF)
	w.U32(0xDEADBEEF)
	w.Bool(true)
	w.Bool(false)
	w.Str("jam")
	w.Bytes([]byte{1, 2, 3})
	w.Count(2)
	w.U8(9)
	w.U8(8)
	want := framed(7, 0xEF, 0xBE, 0xEF, 0xBE, 0xAD, 0xDE, 1, 0, 3, 0, 'j', 'a', 'm', 3, 0, 0, 0, 1, 2, 3, 2, 0, 0, 0, 9, 8)
	if !reflect.DeepEqual([]byte(w), want) {
		t.Fatalf("encoded % x, want % x", []byte(w), want)
	}
	r := NewReader("test", testMagic, w)
	got := []any{r.U8("a"), r.U16("b"), r.U32("c"), r.Bool("d"), r.Bool("e"), r.Str("f"), r.Bytes("g")}
	if !reflect.DeepEqual(got, []any{uint8(7), uint16(0xBEEF), uint32(0xDEADBEEF), true, false, "jam", []byte{1, 2, 3}}) {
		t.Fatalf("decoded %v", got)
	}
	if n := r.Count("h", 2, 1); n != 2 || r.U8("i") != 9 || r.U8("j") != 8 {
		t.Fatalf("count %d or its entries misread", n)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// wantFail checks that r has latched a *Error on field at off.
func wantFail(t *testing.T, r *Reader, field string, off int) {
	t.Helper()
	var we *Error
	if err := r.Done(); !errors.As(err, &we) || we.Field != field || we.Off != off {
		t.Fatalf("err = %v, want a *wire.Error on %q at %d", err, field, off)
	}
}

func TestReaderLatchesFirstFailure(t *testing.T) {
	r := NewReader("test", testMagic, framed(1, 2, 3))
	if v := r.U32("word"); v != 0 {
		t.Fatalf("short read returned %d", v)
	}
	// Later reads, counts and checks see the failure and change nothing.
	if r.U8("byte") != 0 || r.Str("str") != "" || r.Bytes("blob") != nil || r.Count("n", 10, 1) != 0 {
		t.Fatal("read after a failure returned data")
	}
	r.Fail("later", errors.New("ignored"))
	wantFail(t, r, "word", 4)
}

func TestReaderRefusals(t *testing.T) {
	for _, c := range []struct {
		name  string
		in    []byte
		read  func(r *Reader)
		field string
		off   int
	}{
		{"bad magic", []byte{'T', 'E', 'S', 'X'}, func(r *Reader) {}, "magic", 4},
		{"short magic", []byte{'T', 'E'}, func(r *Reader) {}, "magic", 0},
		{"trailing byte", framed(1, 2), func(r *Reader) { r.U8("x") }, "end", 5},
		{"flag byte 2", framed(2), func(r *Reader) { r.Bool("flag") }, "flag", 5},
		{"count over cap", framed(5, 0, 0, 0, 0, 0, 0, 0, 0), func(r *Reader) { r.Count("n", 4, 1) }, "n", 8},
		{"count over input", framed(3, 0, 0, 0, 0, 0, 0, 0, 0), func(r *Reader) { r.Count("n", 4, 2) }, "n", 8},
		{"blob over input", framed(9, 0, 0, 0, 1), func(r *Reader) { r.Bytes("blob") }, "blob", 8},
		{"string over input", framed(2, 0, 'a'), func(r *Reader) { r.Str("name") }, "name", 6},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := NewReader("test", testMagic, c.in)
			c.read(r)
			wantFail(t, r, c.field, c.off)
		})
	}
}
