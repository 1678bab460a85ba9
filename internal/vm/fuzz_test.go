package vm_test

import (
	"encoding/binary"
	"errors"
	"testing"

	"twochains/internal/core"
	"twochains/internal/mem"
	"twochains/internal/tcapp"
	"twochains/internal/vm"
)

// FuzzEnsureJam drives EnsureJam with arbitrary bytes at arbitrary
// (VA, length) sequences, as a hostile sender would: every call must end
// in a mapped region covering exactly the bytes given or an ErrBadCode,
// and the jam tables must keep their invariants and bounds — never a
// panic. script is read four bytes a step: a 16-bit VA offset (unaligned
// ones included; the top bit moves the step to the end of the address
// space), then where in code the body starts and how many words it has.
func FuzzEnsureJam(f *testing.F) {
	script := []byte{0, 0, 0, 255, 8, 0, 0, 255, 0, 0, 1, 3, 0, 0, 0, 255, 0, 128, 0, 2}
	for _, app := range tcapp.Names() {
		pkg, err := tcapp.Build(app)
		if err != nil {
			f.Fatal(err)
		}
		for _, e := range pkg.Elements {
			if e.Kind != core.ElemJam {
				continue
			}
			text := e.Jam.Body[:e.Jam.TextLen]
			f.Add(text, script)
			f.Add(text[:len(text)/2], script)
			f.Add(text[:len(text)-3], script)
		}
	}
	f.Fuzz(func(t *testing.T, code, script []byte) {
		machine, err := vm.New(mem.NewAddressSpace(1<<20), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for ; len(script) >= 4; script = script[4:] {
			off := binary.LittleEndian.Uint16(script)
			start := 0x4000_0000 + uint64(off&0x7fff)
			if off&0x8000 != 0 {
				start = -uint64(off & 0x7fff)
			}
			body := code[min(int(script[2]), len(code)):]
			body = body[:min(8*int(script[3]), len(body))]
			r, err := machine.EnsureJam(start, body)
			switch {
			case err != nil:
				if r != nil || !errors.Is(err, vm.ErrBadCode) {
					t.Fatalf("EnsureJam(0x%x, %d bytes) = %v, %v", start, len(body), r, err)
				}
			case r.Start != start || r.End != start+uint64(len(body)):
				t.Fatalf("EnsureJam(0x%x, %d bytes) mapped [0x%x, 0x%x)", start, len(body), r.Start, r.End)
			}
			if err := machine.CheckJams(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
