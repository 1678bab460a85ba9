package mem

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestAllocBasics(t *testing.T) {
	as := NewAddressSpace(1 << 20)
	a, err := as.Alloc("a", 100, 8, PermRW)
	if err != nil {
		t.Fatal(err)
	}
	if a < Base {
		t.Fatalf("alloc below base: 0x%x", a)
	}
	b, err := as.Alloc("b", 100, 64, PermRW)
	if err != nil {
		t.Fatal(err)
	}
	if b%64 != 0 {
		t.Fatalf("alignment violated: 0x%x", b)
	}
	if b < a+100 {
		t.Fatalf("regions overlap: a=0x%x b=0x%x", a, b)
	}
}

func TestAllocExhaustion(t *testing.T) {
	as := NewAddressSpace(PageSize * 4)
	if _, err := as.Alloc("big", PageSize*8, 8, PermRW); err == nil {
		t.Fatal("oversized alloc succeeded")
	}
}

func TestAllocRejectsNonPositive(t *testing.T) {
	as := NewAddressSpace(1 << 16)
	if _, err := as.Alloc("zero", 0, 8, PermRW); err == nil {
		t.Fatal("zero-size alloc succeeded")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	as := NewAddressSpace(1 << 20)
	va, _ := as.Alloc("buf", 256, 8, PermRW)
	f := func(v uint64, off uint8) bool {
		a := va + uint64(off%200)
		if err := as.WriteU64(a, v); err != nil {
			return false
		}
		got, err := as.ReadU64(a)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTypedWidths(t *testing.T) {
	as := NewAddressSpace(1 << 16)
	va, _ := as.Alloc("w", 64, 8, PermRW)
	if err := as.WriteU64(va, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	if v, _ := as.ReadU8(va); v != 0x88 {
		t.Fatalf("u8 = %#x", v)
	}
	if v, _ := as.ReadU16(va); v != 0x7788 {
		t.Fatalf("u16 = %#x", v)
	}
	if v, _ := as.ReadU32(va); v != 0x55667788 {
		t.Fatalf("u32 = %#x", v)
	}
	if err := as.WriteU16(va+8, 0xABCD); err != nil {
		t.Fatal(err)
	}
	if v, _ := as.ReadU16(va + 8); v != 0xABCD {
		t.Fatalf("u16 rt = %#x", v)
	}
	if err := as.WriteU32(va+16, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	if v, _ := as.ReadU32(va + 16); v != 0xDEADBEEF {
		t.Fatalf("u32 rt = %#x", v)
	}
	if err := as.WriteU8(va+24, 0x7F); err != nil {
		t.Fatal(err)
	}
	if v, _ := as.ReadU8(va + 24); v != 0x7F {
		t.Fatalf("u8 rt = %#x", v)
	}
}

func TestNullDerefFaults(t *testing.T) {
	as := NewAddressSpace(1 << 16)
	_, err := as.ReadU64(0)
	var f *Fault
	if !errors.As(err, &f) || !f.OOB {
		t.Fatalf("null read: %v", err)
	}
	if err := as.WriteU64(8, 1); err == nil {
		t.Fatal("null write succeeded")
	}
}

func TestPermissionEnforcement(t *testing.T) {
	as := NewAddressSpace(1 << 20)
	ro, _ := as.AllocPages("ro", PageSize, PermR)
	if err := as.WriteU64(ro, 1); err == nil {
		t.Fatal("write to read-only page succeeded")
	}
	var f *Fault
	err := as.WriteU64(ro, 1)
	if !errors.As(err, &f) || f.Kind != AccessWrite || f.OOB {
		t.Fatalf("fault detail: %v", err)
	}
	wo, _ := as.AllocPages("nx", PageSize, PermRW)
	if err := as.FetchCheck(wo, 8); err == nil {
		t.Fatal("exec of non-X page succeeded")
	}
	if err := as.Protect(wo, PageSize, PermRWX); err != nil {
		t.Fatal(err)
	}
	if err := as.FetchCheck(wo, 8); err != nil {
		t.Fatalf("exec after Protect: %v", err)
	}
}

func TestCrossPagePermCheck(t *testing.T) {
	as := NewAddressSpace(1 << 20)
	va, _ := as.AllocPages("two", 2*PageSize, PermRW)
	// Make the second page read-only; a write spanning both must fault.
	if err := as.Protect(va+PageSize, PageSize, PermR); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteBytes(va+PageSize-4, make([]byte, 8)); err == nil {
		t.Fatal("cross-page write into RO page succeeded")
	}
	// Reads spanning both are fine.
	if _, err := as.ReadBytes(va+PageSize-4, 8); err != nil {
		t.Fatalf("cross-page read: %v", err)
	}
}

func TestDMABypassesPagePerms(t *testing.T) {
	as := NewAddressSpace(1 << 20)
	ro, _ := as.AllocPages("ro", PageSize, PermR)
	payload := []byte{1, 2, 3, 4}
	if err := as.WriteBytesDMA(ro, payload); err != nil {
		t.Fatalf("DMA write: %v", err)
	}
	got, err := as.ReadBytesDMA(ro, 4)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("DMA read: %v %v", got, err)
	}
	// But DMA still cannot escape the mapped range.
	if err := as.WriteBytesDMA(Base+uint64(as.capacity), payload); err == nil {
		t.Fatal("DMA write past end succeeded")
	}
}

func TestViewAliasesStorage(t *testing.T) {
	as := NewAddressSpace(1 << 16)
	va, _ := as.Alloc("v", 64, 8, PermRW)
	if err := as.WriteU64(va, 42); err != nil {
		t.Fatal(err)
	}
	view, err := as.View(va, 8)
	if err != nil {
		t.Fatal(err)
	}
	view[0] = 43
	if v, _ := as.ReadU64(va); v != 43 {
		t.Fatalf("view write not visible: %d", v)
	}
}

func TestRegionsAndLookup(t *testing.T) {
	as := NewAddressSpace(1 << 20)
	va, _ := as.Alloc("named", 128, 8, PermRW)
	regs := as.Regions()
	if len(regs) != 1 || regs[0].Name != "named" || regs[0].Addr != va {
		t.Fatalf("Regions: %+v", regs)
	}
}

func TestReadCString(t *testing.T) {
	as := NewAddressSpace(1 << 16)
	va, _ := as.Alloc("s", 32, 8, PermRW)
	if err := as.WriteBytes(va, append([]byte("hello"), 0)); err != nil {
		t.Fatal(err)
	}
	s, err := as.ReadCString(va, 32)
	if err != nil || s != "hello" {
		t.Fatalf("ReadCString = %q, %v", s, err)
	}
	// Unterminated.
	full := bytes.Repeat([]byte{'x'}, 16)
	if err := as.WriteBytes(va, full); err != nil {
		t.Fatal(err)
	}
	if _, err := as.ReadCString(va, 8); err == nil {
		t.Fatal("unterminated string accepted")
	}
}

func TestPermString(t *testing.T) {
	if PermRWX.String() != "rwx" || PermR.String() != "r--" || Perm(0).String() != "---" {
		t.Fatal("Perm.String wrong")
	}
}

func TestWriteBytesBoundary(t *testing.T) {
	as := NewAddressSpace(PageSize)
	va, err := as.Alloc("all", PageSize-int(Base%PageSize), 8, PermRW)
	if err != nil {
		// Capacity may not fit after base offset; allocate less.
		va, err = as.Alloc("small", 64, 8, PermRW)
		if err != nil {
			t.Fatal(err)
		}
	}
	_ = va
	// Writing past the end must fail cleanly.
	if err := as.WriteBytes(Base+uint64(as.capacity)-4, make([]byte, 8)); err == nil {
		t.Fatal("write past end succeeded")
	}
}
