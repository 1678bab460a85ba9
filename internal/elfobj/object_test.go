package elfobj

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"twochains/internal/wire"
)

func sampleObject() *Object {
	return &Object{
		Name:    "jam_test.amc",
		Text:    make([]byte, 64),
		Rodata:  []byte("hello\x00"),
		Data:    make([]byte, 16),
		BssSize: 32,
		Symbols: []Symbol{
			{Name: "jam_test", Section: SecText, Binding: BindGlobal, Kind: KindFunc, Value: 0, Size: 64},
			{Name: "greeting", Section: SecRodata, Binding: BindLocal, Kind: KindObject, Value: 0, Size: 6},
			{Name: "memcpy", Section: SecNone, Binding: BindGlobal, Kind: KindFunc},
		},
		Relocs: []Reloc{
			{Type: RelGot, Section: SecText, Offset: 8, Sym: 2},
			{Type: RelLea, Section: SecText, Offset: 16, Sym: 1},
			{Type: RelAbs64, Section: SecData, Offset: 0, Sym: 0},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	o := sampleObject()
	data := o.Encode()
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(o, back) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", o, back)
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	data := sampleObject().Encode()
	data[0] ^= 0xFF
	if _, err := Decode(data); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// TestDecodeRejectsTruncation: every proper prefix of a real encoding,
// and the encoding with one byte appended, is a typed *wire.Error.
func TestDecodeRejectsTruncation(t *testing.T) {
	data := sampleObject().Encode()
	for cut := 0; cut <= len(data); cut++ {
		in := data[:cut]
		if cut == len(data) {
			in = append(in, 0)
		}
		var we *wire.Error
		if _, err := Decode(in); !errors.As(err, &we) {
			t.Fatalf("%d of %d bytes: err = %v, want a *wire.Error", len(in), len(data), err)
		}
	}
}

// TestDecodeHugeSymbolCount: 28 bytes claiming 2^20 symbols are refused
// before anything is sized from the count.
func TestDecodeHugeSymbolCount(t *testing.T) {
	in := []byte{
		'T', 'C', 'E', 'O', 1, 0, // magic, version
		0, 0, // name
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, // .text, .rodata, .data
		0, 0, 0, 0, // .bss size
		0, 0, 0x10, 0, // symbol count 1<<20
	}
	// The runtime or another goroutine can allocate inside the window, but
	// the decode allocates the same every time: the least of three
	// readings is the decode's.
	var err error
	n := uint64(math.MaxUint64)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = Decode(in)
		runtime.ReadMemStats(&after)
		n = min(n, after.TotalAlloc-before.TotalAlloc)
	}
	var we *wire.Error
	if !errors.As(err, &we) || we.Field != "symbol count" {
		t.Fatalf("err = %v, want a *wire.Error on the symbol count", err)
	}
	if n >= 1024 {
		t.Fatalf("decoding %d bytes allocated %d B, want under 1 KB", len(in), n)
	}
}

func TestDecodeRejectsCorruptSymbolIndex(t *testing.T) {
	o := sampleObject()
	o.Relocs[0].Sym = 99
	if err := o.Validate(); err == nil {
		t.Fatal("bad symbol index validated")
	}
}

func TestValidateSymbolOffsets(t *testing.T) {
	o := sampleObject()
	o.Symbols[0].Value = 1000
	if err := o.Validate(); err == nil {
		t.Fatal("out-of-section symbol validated")
	}
}

func TestValidateRelocBounds(t *testing.T) {
	o := sampleObject()
	o.Relocs[0].Offset = 60 // 8-byte fixup would overrun 64-byte text
	if err := o.Validate(); err == nil {
		t.Fatal("overrunning reloc validated")
	}
}

func TestValidateMisalignedInstructionReloc(t *testing.T) {
	o := sampleObject()
	o.Relocs[0].Offset = 12 // not instruction aligned
	if err := o.Validate(); err == nil {
		t.Fatal("misaligned reloc validated")
	}
}

func TestValidateRaggedText(t *testing.T) {
	o := sampleObject()
	o.Text = make([]byte, 61)
	if err := o.Validate(); err == nil {
		t.Fatal("ragged text validated")
	}
}

func TestValidateEmptySymbolName(t *testing.T) {
	o := sampleObject()
	o.Symbols[0].Name = ""
	if err := o.Validate(); err == nil {
		t.Fatal("empty symbol name validated")
	}
}

// TestValidateNameLength: a name of wire.MaxStr bytes round-trips; one
// byte more is refused by Validate, in the object name and in a symbol.
func TestValidateNameLength(t *testing.T) {
	o := sampleObject()
	o.Symbols[0].Name = strings.Repeat("x", wire.MaxStr)
	if err := o.Validate(); err != nil {
		t.Fatalf("%d-byte symbol name refused: %v", wire.MaxStr, err)
	}
	if _, err := Decode(o.Encode()); err != nil {
		t.Fatalf("%d-byte symbol name does not round-trip: %v", wire.MaxStr, err)
	}
	o.Symbols[0].Name += "x"
	if err := o.Validate(); err == nil {
		t.Error("over-long symbol name validated")
	}
	o = sampleObject()
	o.Name = strings.Repeat("x", wire.MaxStr+1)
	if err := o.Validate(); err == nil {
		t.Error("over-long object name validated")
	}
}

func TestFindSymbol(t *testing.T) {
	o := sampleObject()
	if i := o.FindSymbol("memcpy"); i != 2 {
		t.Fatalf("FindSymbol(memcpy) = %d", i)
	}
	if i := o.FindSymbol("nope"); i != -1 {
		t.Fatalf("FindSymbol(nope) = %d", i)
	}
}

func TestSectionAccessors(t *testing.T) {
	o := sampleObject()
	if !bytes.Equal(o.Section(SecRodata), []byte("hello\x00")) {
		t.Fatal("Section(SecRodata) wrong")
	}
	if o.Section(SecBss) != nil {
		t.Fatal("bss has contents")
	}
	if o.SectionSize(SecBss) != 32 {
		t.Fatalf("SectionSize(bss) = %d", o.SectionSize(SecBss))
	}
	if o.SectionSize(SecText) != 64 {
		t.Fatalf("SectionSize(text) = %d", o.SectionSize(SecText))
	}
}

func TestDefined(t *testing.T) {
	o := sampleObject()
	if !o.Symbols[0].Defined() || o.Symbols[2].Defined() {
		t.Fatal("Defined() wrong")
	}
}

func TestStringers(t *testing.T) {
	if SecText.String() != ".text" || SecNone.String() != "*UND*" {
		t.Fatal("SectionID.String")
	}
	if RelGot.String() != "GOT" || RelAbs64.String() != "ABS64" {
		t.Fatal("RelocType.String")
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Property: any structurally valid object round-trips exactly.
	f := func(textWords []uint64, ro []byte, bss uint16, symName string) bool {
		if symName == "" {
			symName = "s"
		}
		if len(symName) > 1000 {
			symName = symName[:1000]
		}
		var text []byte
		if len(textWords) > 0 {
			text = make([]byte, 8*len(textWords))
			for i, w := range textWords {
				for j := 0; j < 8; j++ {
					text[i*8+j] = byte(w >> (8 * j))
				}
			}
		}
		o := &Object{
			Name:    "prop",
			Text:    text,
			Rodata:  ro,
			BssSize: uint32(bss),
			Symbols: []Symbol{{Name: symName, Section: SecText, Value: 0}},
		}
		if len(o.Rodata) == 0 {
			o.Rodata = nil
		}
		back, err := Decode(o.Encode())
		if err != nil {
			return false
		}
		return reflect.DeepEqual(o, back)
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestDecodeGarbage(t *testing.T) {
	// Fuzz-ish: random prefixes must never panic.
	f := func(data []byte) bool {
		_, _ = Decode(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
