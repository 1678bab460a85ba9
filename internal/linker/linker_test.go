package linker

import (
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"

	"twochains/internal/asm"
	"twochains/internal/elfobj"
	"twochains/internal/isa"
	"twochains/internal/mem"
	"twochains/internal/wire"
)

func mustAsm(t *testing.T, name, src string) *elfobj.Object {
	t.Helper()
	o, err := asm.Assemble(name, src)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

const libASrc = `
.text
.extern memcpy
.extern beta
.global alpha
alpha:
    callg memcpy
    callg beta        ; cross-object via GOT
    lea   r0, greet
    ret
.rodata
greet:
    .asciz "hi"
`

const libBSrc = `
.text
.global beta
beta:
    movi r0, 7
    ret
.data
.global counter
counter:
    .quad 0
fptr:
    .quad beta
.bss
.global scratch
scratch:
    .space 256
`

func linkAB(t *testing.T) *Image {
	t.Helper()
	img, err := LinkLibrary("libtest", []*elfobj.Object{
		mustAsm(t, "a.s", libASrc),
		mustAsm(t, "b.s", libBSrc),
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestLinkLayoutAndExports(t *testing.T) {
	img := linkAB(t)
	for _, name := range []string{"alpha", "beta", "counter", "scratch"} {
		if _, ok := findExport(img, name); !ok {
			t.Errorf("export %q missing", name)
		}
	}
	if _, ok := findExport(img, "fptr"); ok {
		t.Error("local symbol fptr exported")
	}
	if img.TextOff%PageAlign != 0 || img.DataOff%PageAlign != 0 {
		t.Errorf("sections not page aligned: text=%d data=%d", img.TextOff, img.DataOff)
	}
	if img.BssLen < 256 {
		t.Errorf("bss %d, want >= 256", img.BssLen)
	}
}

func TestLinkGotSlots(t *testing.T) {
	img := linkAB(t)
	// memcpy extern + beta local = 2 slots.
	if len(img.Got) != 2 {
		t.Fatalf("GOT entries = %d, want 2: %+v", len(img.Got), img.Got)
	}
	byName := map[string]GotEntry{}
	for _, g := range img.Got {
		byName[g.Sym] = g
	}
	if e := byName["memcpy"]; e.Local {
		t.Error("memcpy should be external")
	}
	if e := byName["beta"]; !e.Local {
		t.Error("beta should be local")
	}
	betaExp, _ := findExport(img, "beta")
	if byName["beta"].Off != betaExp.Off {
		t.Errorf("beta GOT target %d != export %d", byName["beta"].Off, betaExp.Off)
	}
	if got := imageExterns(img); !reflect.DeepEqual(got, []string{"memcpy"}) {
		t.Errorf("Externs = %v", got)
	}
}

func TestLinkPatchesGotSlotIndices(t *testing.T) {
	img := linkAB(t)
	alpha, _ := findExport(img, "alpha")
	in0 := isa.Decode(img.Blob[alpha.Off:])
	in1 := isa.Decode(img.Blob[alpha.Off+8:])
	if in0.Op != isa.CALLG || in1.Op != isa.CALLG {
		t.Fatalf("ops: %v %v", in0, in1)
	}
	if in0.Imm == in1.Imm {
		t.Error("distinct symbols share a GOT slot")
	}
	if int(in0.Imm) >= len(img.Got) || int(in1.Imm) >= len(img.Got) {
		t.Error("slot index out of range")
	}
}

func TestLinkLeaResolution(t *testing.T) {
	img := linkAB(t)
	alpha, _ := findExport(img, "alpha")
	lea := isa.Decode(img.Blob[alpha.Off+16:])
	if lea.Op != isa.LEA {
		t.Fatalf("expected lea, got %v", lea)
	}
	target := int(alpha.Off) + 16 + int(lea.Imm)
	if got := string(img.Blob[target : target+2]); got != "hi" {
		t.Errorf("lea points at %q", got)
	}
}

func TestLinkDuplicateGlobalRejected(t *testing.T) {
	a := mustAsm(t, "a.s", ".text\n.global f\nf:\n    ret\n")
	b := mustAsm(t, "b.s", ".text\n.global f\nf:\n    ret\n")
	if _, err := LinkLibrary("dup", []*elfobj.Object{a, b}); err == nil {
		t.Fatal("duplicate global accepted")
	}
}

func TestLinkNoObjects(t *testing.T) {
	if _, err := LinkLibrary("empty", nil); err == nil {
		t.Fatal("empty link accepted")
	}
}

func TestImageEncodeDecodeRoundTrip(t *testing.T) {
	img := linkAB(t)
	back, err := DecodeImage(img.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(img, back) {
		t.Fatalf("image round trip mismatch")
	}
}

// rejectsEveryCut checks that decode refuses every proper prefix of data,
// and data with one byte appended, with a typed *wire.Error.
func rejectsEveryCut(t *testing.T, data []byte, decode func([]byte) error) {
	t.Helper()
	for cut := 0; cut <= len(data); cut++ {
		in := data[:cut]
		if cut == len(data) {
			in = append(in, 0)
		}
		var we *wire.Error
		if err := decode(in); !errors.As(err, &we) {
			t.Fatalf("%d of %d bytes: err = %v, want a *wire.Error", len(in), len(data), err)
		}
	}
}

// flagAt returns the offset of the one byte where two encodings differ.
func flagAt(t *testing.T, a, b []byte) int {
	t.Helper()
	at := -1
	for i := range a {
		if a[i] != b[i] {
			if at >= 0 {
				t.Fatalf("encodings differ at %d and %d", at, i)
			}
			at = i
		}
	}
	return at
}

func TestDecodeImageGarbage(t *testing.T) {
	if _, err := DecodeImage([]byte{1, 2, 3}); err == nil {
		t.Fatal("garbage image accepted")
	}
	img := linkAB(t)
	rejectsEveryCut(t, img.Encode(), func(b []byte) error { _, err := DecodeImage(b); return err })

	// A Local flag byte other than 0 or 1 is refused, in a GOT entry and
	// in a load relocation.
	data := img.Encode()
	for field, flip := range map[string]func(*Image){
		"GOT local": func(c *Image) {
			c.Got = append([]GotEntry(nil), c.Got...)
			c.Got[0].Local = !c.Got[0].Local
		},
		"load reloc local": func(c *Image) {
			c.LoadRelocs = append([]LoadReloc(nil), c.LoadRelocs...)
			c.LoadRelocs[0].Local = !c.LoadRelocs[0].Local
		},
	} {
		c := *img
		flip(&c)
		bad := append([]byte(nil), data...)
		bad[flagAt(t, data, c.Encode())] = 2
		var we *wire.Error
		if _, err := DecodeImage(bad); !errors.As(err, &we) || we.Field != field {
			t.Errorf("%s byte 2: err = %v, want a *wire.Error on it", field, err)
		}
	}
}

// TestDecodeImageRefusesLayouts: an image whose layout LinkLibrary cannot
// produce, or whose export, local GOT target or load relocation lies
// outside it, is refused with a *wire.Error on the field.
func TestDecodeImageRefusesLayouts(t *testing.T) {
	img := linkAB(t)
	if _, err := DecodeImage(img.Encode()); err != nil {
		t.Fatal(err)
	}
	local := -1
	for i, g := range img.Got {
		if g.Local {
			local = i
		}
	}
	if local < 0 || len(img.LoadRelocs) == 0 || !img.LoadRelocs[0].Local {
		t.Fatal("linkAB has no local GOT entry or local load relocation")
	}
	for _, c := range []struct {
		name, field string
		edit        func(c *Image)
	}{
		{"textPastTotal", "layout", func(c *Image) { c.TextLen = c.TotalSize }},
		{"sectionsSwapped", "layout", func(c *Image) { c.RodataOff, c.DataOff = c.DataOff, c.RodataOff }},
		{"gotNotAtZero", "layout", func(c *Image) { c.GotOff = 8 }},
		{"unaligned", "layout", func(c *Image) { c.DataOff++ }},
		{"raggedText", "layout", func(c *Image) { c.TextLen -= 4 }},
		{"totalShort", "layout", func(c *Image) { c.TotalSize -= PageAlign }},
		{"blobShort", "layout", func(c *Image) { c.Blob = c.Blob[:len(c.Blob)-1] }},
		{"gotLen", "GOT count", func(c *Image) { c.GotLen += 8 }},
		{"export", "export offset", func(c *Image) { c.Exports[0].Off = uint32(c.TotalSize + 1) }},
		{"gotTarget", "GOT offset", func(c *Image) { c.Got[local].Off = uint32(c.TotalSize + 1) }},
		{"relocInGot", "load reloc offset", func(c *Image) { c.LoadRelocs[0].Off = 0 }},
		{"relocPastBlob", "load reloc offset", func(c *Image) { c.LoadRelocs[0].Off = uint32(len(c.Blob) - 4) }},
		{"relocTarget", "load reloc target", func(c *Image) { c.LoadRelocs[0].Target = uint32(c.TotalSize + 1) }},
	} {
		cp := *img
		cp.Exports = append([]ImageSym(nil), img.Exports...)
		cp.Got = append([]GotEntry(nil), img.Got...)
		cp.LoadRelocs = append([]LoadReloc(nil), img.LoadRelocs...)
		c.edit(&cp)
		var we *wire.Error
		if _, err := DecodeImage(cp.Encode()); !errors.As(err, &we) || we.Field != c.field {
			t.Errorf("%s: err = %v, want a *wire.Error on %s", c.name, err, c.field)
		}
	}
}

func newSpace(t *testing.T) (*mem.AddressSpace, *Namespace) {
	t.Helper()
	as := mem.NewAddressSpace(4 << 20)
	ns := NewNamespace()
	return as, ns
}

func TestLoadBindsGotAndExports(t *testing.T) {
	as, ns := newSpace(t)
	if err := ns.Define("memcpy", 0xDEAD000); err != nil {
		t.Fatal(err)
	}
	img := linkAB(t)
	ld, err := Load(as, ns, img, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// GOT slot for memcpy holds the native VA; slot for beta holds its VA.
	var memcpySlot, betaSlot = -1, -1
	for i, g := range img.Got {
		switch g.Sym {
		case "memcpy":
			memcpySlot = i
		case "beta":
			betaSlot = i
		}
	}
	v, err := as.ReadU64(ld.GotVA + uint64(memcpySlot*8))
	if err != nil || v != 0xDEAD000 {
		t.Fatalf("memcpy GOT = %#x, %v", v, err)
	}
	betaVA, ok := ns.Lookup("beta")
	if !ok {
		t.Fatal("beta not in namespace after load")
	}
	v, _ = as.ReadU64(ld.GotVA + uint64(betaSlot*8))
	if v != betaVA {
		t.Fatalf("beta GOT %#x != namespace %#x", v, betaVA)
	}
}

func TestLoadAppliesLoadRelocs(t *testing.T) {
	as, ns := newSpace(t)
	if err := ns.Define("memcpy", 0xDEAD000); err != nil {
		t.Fatal(err)
	}
	img := linkAB(t)
	ld, err := Load(as, ns, img, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// fptr (.quad beta) must hold beta's VA.
	var fptrOff uint32
	found := false
	for _, lr := range img.LoadRelocs {
		if lr.Sym == "beta" {
			fptrOff = lr.Off
			found = true
		}
	}
	if !found {
		t.Fatal("no load reloc for beta")
	}
	base := ld.GotVA - uint64(img.GotOff) // VA of image offset 0
	v, err := as.ReadU64(base + uint64(fptrOff))
	if err != nil {
		t.Fatal(err)
	}
	if v != ld.Exports["beta"] {
		t.Fatalf("fptr = %#x, want %#x", v, ld.Exports["beta"])
	}
}

func TestLoadPermissions(t *testing.T) {
	as, ns := newSpace(t)
	if err := ns.Define("memcpy", 0xDEAD000); err != nil {
		t.Fatal(err)
	}
	img := linkAB(t)
	ld, err := Load(as, ns, img, LoadOptions{ReadOnlyGOT: true})
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := as.PermAt(ld.TextVA); p != mem.PermRX {
		t.Errorf("text perm %s", p)
	}
	if p, _ := as.PermAt(ld.GotVA); p != mem.PermR {
		t.Errorf("GOT perm %s, want r-- with ReadOnlyGOT", p)
	}
	if err := as.WriteU64(ld.GotVA, 0x41414141); err == nil {
		t.Error("GOT overwrite succeeded despite ReadOnlyGOT")
	}
	dataVA := ld.GotVA - uint64(img.GotOff) + uint64(img.DataOff)
	if p, _ := as.PermAt(dataVA); p != mem.PermRW {
		t.Errorf("data perm %s", p)
	}
}

func TestLoadUndefinedSymbolFails(t *testing.T) {
	as, ns := newSpace(t) // no memcpy defined
	img := linkAB(t)
	if _, err := Load(as, ns, img, LoadOptions{}); err == nil ||
		!strings.Contains(err.Error(), "memcpy") {
		t.Fatalf("undefined symbol load: %v", err)
	}
}

func TestLoadReplaceSemantics(t *testing.T) {
	as, ns := newSpace(t)
	v1 := mustAsm(t, "v1.s", ".text\n.global handler\nhandler:\n    movi r0, 1\n    ret\n")
	v2 := mustAsm(t, "v2.s", ".text\n.global handler\nhandler:\n    movi r0, 2\n    ret\n")
	img1, err := LinkLibrary("h1", []*elfobj.Object{v1})
	if err != nil {
		t.Fatal(err)
	}
	img2, err := LinkLibrary("h2", []*elfobj.Object{v2})
	if err != nil {
		t.Fatal(err)
	}
	ld1, err := Load(as, ns, img1, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// A second definition without Replace fails...
	if _, err := Load(as, ns, img2, LoadOptions{}); err == nil {
		t.Fatal("duplicate definition accepted without Replace")
	}
	// ...and succeeds with Replace, rebinding the name (remote linking
	// update semantics).
	ld2, err := Load(as, ns, img2, LoadOptions{Replace: true})
	if err != nil {
		t.Fatal(err)
	}
	va, _ := ns.Lookup("handler")
	if va != ld2.Exports["handler"] || va == ld1.Exports["handler"] {
		t.Fatal("namespace not rebound to v2")
	}
}

const jamSrc = `
.text
.extern memcpy
.extern tc_result_store
.global jam_copy
jam_copy:
    callg memcpy
    ldg   r1, tc_result_store
    call  helper
    lea   r2, fmt
    ret
helper:
    callg memcpy      ; same extern again: same slot
    ret
.rodata
fmt:
    .asciz "copied %d\n"
`

func buildJam(t *testing.T) *Jam {
	t.Helper()
	j, err := BuildJam(mustAsm(t, "jam_copy.amc", jamSrc), "jam_copy")
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestBuildJamTransformsGotOps(t *testing.T) {
	j := buildJam(t)
	ins, err := isa.DecodeAll(j.Body[:j.TextLen])
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range ins {
		if in.Op == isa.CALLG || in.Op == isa.LDG {
			t.Fatalf("untransformed GOT op remains: %v", in)
		}
	}
	if ins[0].Op != isa.CALLP {
		t.Fatalf("first op %v, want callp", ins[0])
	}
	if ins[1].Op != isa.LDP {
		t.Fatalf("second op %v, want ldp", ins[1])
	}
}

func TestBuildJamSlotDedupe(t *testing.T) {
	j := buildJam(t)
	if len(j.Got) != 2 {
		t.Fatalf("GOT slots = %d, want 2 (memcpy deduped): %+v", len(j.Got), j.Got)
	}
	ins, _ := isa.DecodeAll(j.Body[:j.TextLen])
	// jam_copy's callp and helper's callp must share the memcpy slot.
	if ins[0].Imm != ins[5].Imm {
		t.Fatalf("memcpy slots differ: %d vs %d", ins[0].Imm, ins[5].Imm)
	}
	if got := j.Externs(); !reflect.DeepEqual(got, []string{"memcpy", "tc_result_store"}) {
		t.Fatalf("Externs = %v", got)
	}
}

func TestBuildJamLeaPointsIntoBody(t *testing.T) {
	j := buildJam(t)
	ins, _ := isa.DecodeAll(j.Body[:j.TextLen])
	lea := ins[3]
	if lea.Op != isa.LEA {
		t.Fatalf("ins[3] = %v", lea)
	}
	target := 3*isa.InstrSize + int(lea.Imm)
	if target < j.TextLen || target >= len(j.Body) {
		t.Fatalf("lea target %d outside rodata [%d,%d)", target, j.TextLen, len(j.Body))
	}
	if !strings.HasPrefix(string(j.Body[target:]), "copied") {
		t.Fatalf("lea points at %q", j.Body[target:target+6])
	}
}

func TestBuildJamInternalCallPreserved(t *testing.T) {
	j := buildJam(t)
	ins, _ := isa.DecodeAll(j.Body[:j.TextLen])
	call := ins[2]
	if call.Op != isa.CALL || call.Imm != 3 {
		t.Fatalf("internal call = %v, want pc-relative +3", call)
	}
}

func TestBuildJamShippedSize(t *testing.T) {
	j := buildJam(t)
	want := len(j.Got)*8 + 8 + len(j.Body)
	if j.ShippedSize() != want {
		t.Fatalf("ShippedSize = %d, want %d", j.ShippedSize(), want)
	}
}

func TestBuildJamRejectsMutableState(t *testing.T) {
	withData := mustAsm(t, "bad.amc", ".text\n.global f\nf:\n    ret\n.data\nx:\n    .quad 1\n")
	if _, err := BuildJam(withData, "f"); err == nil {
		t.Fatal("jam with .data accepted")
	}
	withBss := mustAsm(t, "bad2.amc", ".text\n.global f\nf:\n    ret\n.bss\nb:\n    .space 8\n")
	if _, err := BuildJam(withBss, "f"); err == nil {
		t.Fatal("jam with .bss accepted")
	}
}

func TestBuildJamRejectsMissingEntry(t *testing.T) {
	o := mustAsm(t, "j.amc", ".text\n.global f\nf:\n    ret\n")
	if _, err := BuildJam(o, "nope"); err == nil {
		t.Fatal("missing entry accepted")
	}
}

func TestJamEncodeDecodeRoundTrip(t *testing.T) {
	j := buildJam(t)
	back, err := DecodeJam(j.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(j, back) {
		t.Fatalf("jam round trip mismatch:\n%+v\n%+v", j, back)
	}
}

func TestDecodeJamGarbage(t *testing.T) {
	if _, err := DecodeJam([]byte{0, 1, 2}); err == nil {
		t.Fatal("garbage jam accepted")
	}
	j := buildJam(t)
	data := j.Encode()
	rejectsEveryCut(t, data, func(b []byte) error { _, err := DecodeJam(b); return err })

	flipped := *j
	flipped.Got = append([]GotSym(nil), j.Got...)
	flipped.Got[0].Local = !flipped.Got[0].Local
	bad := append([]byte(nil), data...)
	bad[flagAt(t, data, flipped.Encode())] = 2
	var we *wire.Error
	if _, err := DecodeJam(bad); !errors.As(err, &we) || we.Field != "GOT local" {
		t.Errorf("GOT flag byte 2: err = %v, want a *wire.Error on \"GOT local\"", err)
	}
}

func TestNamespaceSemantics(t *testing.T) {
	ns := NewNamespace()
	if err := ns.Define("x", 1); err != nil {
		t.Fatal(err)
	}
	if err := ns.Define("x", 2); err == nil {
		t.Fatal("redefinition via Define accepted")
	}
	ns.Redefine("x", 3)
	if v, _ := ns.Lookup("x"); v != 3 {
		t.Fatalf("x = %d", v)
	}
	snap := ns.Snapshot()
	ns.Redefine("x", 4)
	if snap["x"] != 3 {
		t.Fatal("snapshot aliased live map")
	}
	if len(ns.syms) != 1 {
		t.Fatal("Names wrong")
	}
}

// findExport returns the exported symbol called name.
func findExport(img *Image, name string) (ImageSym, bool) {
	for _, s := range img.Exports {
		if s.Name == name {
			return s, true
		}
	}
	return ImageSym{}, false
}

// imageExterns returns the sorted names of the external symbols the image
// needs at load.
func imageExterns(img *Image) []string {
	seen := map[string]bool{}
	var out []string
	for _, g := range img.Got {
		if !g.Local && !seen[g.Sym] {
			seen[g.Sym] = true
			out = append(out, g.Sym)
		}
	}
	for _, lr := range img.LoadRelocs {
		if !lr.Local && !seen[lr.Sym] {
			seen[lr.Sym] = true
			out = append(out, lr.Sym)
		}
	}
	sort.Strings(out)
	return out
}
