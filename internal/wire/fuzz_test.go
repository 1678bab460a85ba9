package wire_test

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"

	"twochains/internal/asm"
	"twochains/internal/core"
	"twochains/internal/elfobj"
	"twochains/internal/linker"
	"twochains/internal/mem"
	"twochains/internal/tcapp"
	"twochains/internal/wire"
)

type encoder interface{ Encode() []byte }

// decoders are the four formats, picked by a fuzz input's first byte.
var decoders = [...]struct {
	name   string
	decode func([]byte) (encoder, error)
}{
	{"elfobj", func(b []byte) (encoder, error) { return elfobj.Decode(b) }},
	{"image", func(b []byte) (encoder, error) { return linker.DecodeImage(b) }},
	{"jam", func(b []byte) (encoder, error) { return linker.DecodeJam(b) }},
	{"package", func(b []byte) (encoder, error) { return core.DecodePackage(b) }},
}

// FuzzDecode feeds bytes to one of the four decoders. It must not panic;
// a refusal must be a *wire.Error; an accepted input must re-encode to
// exactly its bytes; and decoding may allocate at most 16 bytes per input
// byte plus 4 KiB. Seeds are the real encodings of the tcapp packages,
// their elements and Local Function libraries, and assembled objects.
func FuzzDecode(f *testing.F) {
	seed := func(which byte, b []byte) { f.Add(append([]byte{which}, b...)) }
	for _, src := range []string{core.JamSSSumSrc, core.JamIPutSrc, core.RiedKVBenchSrc} {
		obj, err := asm.Assemble("seed.s", src)
		if err != nil {
			f.Fatal(err)
		}
		seed(0, obj.Encode())
	}
	for _, app := range []string{"tcbench", "kvstore", "histo"} {
		pkg, err := tcapp.Build(app)
		if err != nil {
			f.Fatal(err)
		}
		for _, e := range pkg.Elements {
			if e.Kind == core.ElemJam {
				seed(2, e.Jam.Encode())
			} else {
				seed(1, e.Ried.Encode())
				// Text reaching past the image: Load would make the
				// pages after the image's region r-x.
				bad := *e.Ried
				bad.TextLen = bad.TotalSize
				seed(1, bad.Encode())
			}
		}
		seed(1, pkg.LocalLib.Encode())
		seed(3, pkg.Encode())
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		d, data := decoders[int(in[0])%len(decoders)], in[1:]
		// The runtime or the fuzzing worker's own goroutines can allocate
		// between two readings, but a decode allocates the same every
		// time: the least of up to three readings is the decode's.
		var (
			v             encoder
			err           error
			before, after runtime.MemStats
			limit         = uint64(16*len(data) + 4096)
			n             = uint64(math.MaxUint64)
		)
		for try := 0; try < 3 && n > limit; try++ {
			runtime.ReadMemStats(&before)
			v, err = d.decode(data)
			runtime.ReadMemStats(&after)
			n = min(n, after.TotalAlloc-before.TotalAlloc)
		}
		if n > limit {
			t.Fatalf("%s: decoding %d bytes allocated %d B, over %d", d.name, len(data), n, limit)
		}
		if err != nil {
			var we *wire.Error
			if !errors.As(err, &we) {
				t.Fatalf("%s: refusal is not a *wire.Error: %v", d.name, err)
			}
			return
		}
		if !bytes.Equal(v.Encode(), data) {
			t.Fatalf("%s: accepted %d bytes that re-encode differently", d.name, len(data))
		}
		if img, ok := v.(*linker.Image); ok {
			loadsInPlace(t, img)
		}
	})
}

// loadsInPlace loads an accepted image into a fresh 1 MiB space after a
// guard page, with every name it imports defined. An image that fits must
// load, its text must read back and be r-x, and no page outside the
// image's region may change its permissions.
func loadsInPlace(t *testing.T, img *linker.Image) {
	const room = 1 << 20
	as := mem.NewAddressSpace(room)
	defer as.Release()
	if _, err := as.AllocPages("guard", mem.PageSize, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	perms := func() (p [room / mem.PageSize]mem.Perm) {
		for i := range p {
			p[i], _ = as.PermAt(mem.Base + uint64(i*mem.PageSize))
		}
		return p
	}
	before := perms()
	ns := linker.NewNamespace()
	for _, g := range img.Got {
		ns.Redefine(g.Sym, mem.Base)
	}
	for _, lr := range img.LoadRelocs {
		ns.Redefine(lr.Sym, mem.Base)
	}
	ld, err := linker.Load(as, ns, img, linker.LoadOptions{Replace: true})
	if img.TotalSize == 0 || img.TotalSize > room-mem.PageSize {
		return // nothing to map, or no room for it: Alloc refuses
	}
	if err != nil {
		t.Fatalf("image of %d bytes accepted but does not load: %v", img.TotalSize, err)
	}
	if _, err := as.ReadBytesDMA(ld.TextVA, ld.TextLen); err != nil {
		t.Fatalf("loaded text does not read back: %v", err)
	}
	base := ld.GotVA - uint64(img.GotOff)
	after := perms()
	for i := range after {
		va := mem.Base + uint64(i*mem.PageSize)
		inText := va >= ld.TextVA && va < ld.TextVA+uint64(ld.TextLen)
		switch {
		case va < base || va >= base+uint64(img.TotalSize):
			if after[i] != before[i] {
				t.Fatalf("page %#x outside the image [%#x, %#x) went %v -> %v", va, base, base+uint64(img.TotalSize), before[i], after[i])
			}
		case inText && after[i] != mem.PermRX:
			t.Fatalf("text page %#x is %v, want %v", va, after[i], mem.PermRX)
		}
	}
}
