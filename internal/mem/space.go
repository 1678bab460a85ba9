// Package mem provides simulated process address spaces: flat 64-bit
// virtual addresses backed by a byte array, with page-granular R/W/X
// permissions and a region allocator.
//
// Every node in the simulated cluster owns one AddressSpace. Loaded
// libraries, mailbox frames, heaps and stacks are regions inside it, so a
// virtual address is meaningful only within its node — exactly the problem
// the paper's remote-linking mechanism exists to solve.
package mem

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
	"sync"
)

// PageSize is the permission granularity.
const PageSize = 4096

// Base is the lowest mapped virtual address; everything below faults,
// catching null and small-integer dereferences.
const Base uint64 = 0x10000

// Perm is a page permission bitmask.
type Perm uint8

const (
	PermR Perm = 1 << iota
	PermW
	PermX
	PermRW  = PermR | PermW
	PermRX  = PermR | PermX
	PermRWX = PermR | PermW | PermX
)

// A page of a recycled backing that has not been zeroed yet is stored in
// the page table as permStale with its declared permissions shifted up
// out of the way: the R/W/X bits every fast-path guard tests are then 0,
// so the first access of any kind falls to the checked slow path, which
// zeroes the page and publishes the declared permissions (scrubPage).
const (
	permStale     Perm = 0x80
	permDeclShift      = 3
)

// stale returns the page-table entry of a not-yet-zeroed page whose
// declared permissions are p.
func (p Perm) stale() Perm { return permStale | p<<permDeclShift }

// declared returns the permissions Alloc/Protect gave the page whose
// page-table entry is p, stale or not.
func (p Perm) declared() Perm {
	if p&permStale != 0 {
		return p >> permDeclShift & PermRWX
	}
	return p
}

func (p Perm) String() string {
	s := [3]byte{'-', '-', '-'}
	if p&PermR != 0 {
		s[0] = 'r'
	}
	if p&PermW != 0 {
		s[1] = 'w'
	}
	if p&PermX != 0 {
		s[2] = 'x'
	}
	return string(s[:])
}

// AccessKind labels the operation that faulted.
type AccessKind int

const (
	AccessRead AccessKind = iota
	AccessWrite
	AccessExec
)

func (k AccessKind) String() string {
	switch k {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessExec:
		return "exec"
	}
	return "?"
}

// Fault is a memory access violation.
type Fault struct {
	Addr uint64
	Size int
	Kind AccessKind
	Perm Perm // permissions of the page, if mapped
	OOB  bool // address outside the mapped range
}

func (f *Fault) Error() string {
	if f.OOB {
		return fmt.Sprintf("mem: %s fault at 0x%x (%d bytes): unmapped", f.Kind, f.Addr, f.Size)
	}
	return fmt.Sprintf("mem: %s fault at 0x%x (%d bytes): page is %s", f.Kind, f.Addr, f.Size, f.Perm)
}

// Region records an allocation for diagnostics.
type Region struct {
	Name string //tclint:allow writeonly the tc tests read a node's region layout through AS.Regions
	Addr uint64
	Size int
	Perm Perm //tclint:allow writeonly the tc tests read a node's region layout through AS.Regions
}

// AddressSpace is one simulated process image.
//
// The backing array is mapped lazily: capacity is the virtual size every
// bounds check uses, while data holds only a prefix that grows (by
// doubling) as the bump allocator and accessors touch higher addresses.
// A node that allocates a few megabytes out of a 64 MB space never pays
// for zeroing the other 60 — which used to dominate the wall-clock cost
// of constructing many-node systems.
//
// Backings are recycled across spaces: Release puts the array on a
// process-wide Shelf, last in first out and capped in bytes, and the next
// space to grow takes it from there instead of allocating (and zeroing) a
// new one. A recycled array holds its previous occupant's bytes, so its
// pages start stale and are zeroed one at a time on first touch; no
// accessor can observe a byte that was not zeroed or written through this
// space. The owner of a space calls Release exactly when nothing will
// access it again (tc.System.Close); Views must not outlive it.
type AddressSpace struct {
	data     []byte // mapped prefix of the space, grows on demand
	capacity int    // virtual size in bytes
	perms    []Perm // one per page of the full virtual size; see permStale
	stale    int    // pages of data still marked permStale
	brk      uint64 // next free address (bump allocator)
	regions  []Region
}

// backings holds released backing arrays for the next space that grows, for
// every space in the process, under backingsMu with its counters: up to
// 1 GiB, a 64-node mesh's 64 spaces of 16 MiB.
var (
	backingsMu         sync.Mutex
	backings           = Shelf[[]byte]{Max: 1 << 30}
	released, recycled uint64
)

// PoolStats is the backing shelf's traffic since the process started.
type PoolStats struct {
	//tclint:allow writeonly the workload lifecycle tests count released backings through BackingPoolStats
	Released uint64 // backings Release put on the shelf
	//tclint:allow writeonly the mem recycle tests check that the reuse path ran through BackingPoolStats
	Recycled uint64 // growths served from the shelf instead of the allocator
}

// BackingPoolStats reports the shelf counters — for tests that must know
// a system was released, or that the reuse path actually ran.
//
//tclint:allow deadexport the workload lifecycle tests count released backings through it
func BackingPoolStats() PoolStats {
	backingsMu.Lock()
	defer backingsMu.Unlock()
	return PoolStats{Released: released, Recycled: recycled}
}

// getBacking takes the smallest shelved array that holds c bytes, trying c
// and then, doubling, each size up to most; it returns nil if there is none.
// The bytes are whatever the previous occupant left.
func getBacking(c, most int) []byte {
	backingsMu.Lock()
	defer backingsMu.Unlock()
	for ; ; c = min(c<<1, most) {
		if b, ok := backings.Get(1 << bits.Len(uint(c-1))); ok {
			recycled++
			return b[:c]
		}
		if c >= most {
			return nil
		}
	}
}

// NewAddressSpace creates a space with the given capacity in bytes
// (rounded up to a page). No backing memory is mapped yet.
func NewAddressSpace(capacity int) *AddressSpace {
	pages := (capacity + PageSize - 1) / PageSize
	return &AddressSpace{
		capacity: pages * PageSize,
		perms:    make([]Perm, pages),
		brk:      Base,
	}
}

// Release puts the backing on the shelf and unmaps the space: every later
// access is an out-of-bounds *Fault and every Alloc fails. Calling it again
// is harmless. The caller must hold no View of the space. An array past the
// shelf's cap, or the one odd case, a capacity that is not a power of two
// mapped in full from the allocator, is left to the collector.
func (as *AddressSpace) Release() {
	backingsMu.Lock()
	if PutBytes(&backings, as.data) {
		released++
	}
	backingsMu.Unlock()
	as.data, as.perms, as.capacity, as.stale = nil, nil, 0, 0
}

func (as *AddressSpace) index(va uint64) (int, bool) {
	if va < Base {
		return 0, false
	}
	i := va - Base
	if i >= uint64(as.capacity) {
		return 0, false
	}
	return int(i), true
}

// grow extends the mapped prefix to cover at least n bytes (n must exceed
// it), from a recycled backing when the shelf has one of the size. Growth
// doubles, so the copy work amortizes to O(high-water mark). Fresh bytes
// read as zero either way: a new array is zero, and the new pages of a
// recycled one are marked stale. The outgrown array is left to the
// collector, not shelved — a View handed out before the growth may still
// alias it.
//
// A space's first mapping takes the smallest recycled array that fits, of
// any size up to capacity, before it allocates one: a node asks for a page
// first and for megabytes a moment later, and the chain of fresh arrays
// and copies in between is work nothing reads.
func (as *AddressSpace) grow(n int) {
	old := len(as.data)
	c := old
	if c < 1<<16 {
		c = 1 << 16
	}
	for c < n {
		c <<= 1
	}
	if c > as.capacity {
		c = as.capacity
	}
	most := c
	if old == 0 {
		most = as.capacity
	}
	nd := getBacking(c, most)
	if nd != nil {
		c = len(nd)
		for p := old / PageSize; p < c/PageSize; p++ {
			as.perms[p] = as.perms[p].stale()
		}
		as.stale += (c - old) / PageSize
	} else {
		nd = make([]byte, c)
	}
	copy(nd, as.data)
	as.data = nd
}

// commit makes [i, i+size) hold the space's logical contents: mapped,
// and every stale page in it zeroed. Every accessor that is about to
// index data outside the fast paths goes through it; on a space with
// nothing to map and nothing stale it is two compares, inlined.
func (as *AddressSpace) commit(i, size int) {
	if i+size > len(as.data) || as.stale != 0 {
		as.commitSlow(i, size)
	}
}

func (as *AddressSpace) commitSlow(i, size int) {
	if i+size > len(as.data) {
		as.grow(i + size)
	}
	if as.stale != 0 && size > 0 {
		for p := i / PageSize; p <= (i+size-1)/PageSize; p++ {
			if as.perms[p]&permStale != 0 {
				as.scrubPage(p)
			}
		}
	}
}

// scrubPage zeroes stale page p and publishes its declared permissions.
func (as *AddressSpace) scrubPage(p int) {
	clear(as.data[p*PageSize : (p+1)*PageSize])
	as.perms[p] = as.perms[p].declared()
	as.stale--
}

// Alloc reserves size bytes aligned to align with the given permissions and
// returns the base VA. Named regions appear in Regions() for diagnostics.
func (as *AddressSpace) Alloc(name string, size, align int, perm Perm) (uint64, error) {
	if size <= 0 {
		return 0, fmt.Errorf("mem: Alloc %q: non-positive size %d", name, size)
	}
	if align <= 0 {
		align = 8
	}
	va := (as.brk + uint64(align) - 1) / uint64(align) * uint64(align)
	if _, ok := as.index(va + uint64(size) - 1); !ok {
		return 0, fmt.Errorf("mem: Alloc %q: out of address space (%d bytes requested, brk=0x%x, cap=%d)",
			name, size, as.brk, as.capacity)
	}
	as.brk = va + uint64(size)
	// Map the region eagerly so accessors (and Views handed out before the
	// next Alloc) hit stable backing.
	if n := int(as.brk - Base); n > len(as.data) {
		as.grow(n)
	}
	as.setPerm(va, size, perm)
	as.regions = append(as.regions, Region{Name: name, Addr: va, Size: size, Perm: perm})
	return va, nil
}

// AllocPages is Alloc with page alignment and page-rounded size, for
// regions whose permissions must not interfere with neighbours (mailboxes,
// code segments).
func (as *AddressSpace) AllocPages(name string, size int, perm Perm) (uint64, error) {
	size = (size + PageSize - 1) / PageSize * PageSize
	return as.Alloc(name, size, PageSize, perm)
}

func (as *AddressSpace) setPerm(va uint64, size int, perm Perm) {
	perm &= PermRWX
	first := (va - Base) / PageSize
	last := (va - Base + uint64(size) - 1) / PageSize
	for p := first; p <= last; p++ {
		if as.perms[p]&permStale != 0 {
			as.perms[p] = perm.stale()
		} else {
			as.perms[p] = perm
		}
	}
}

// Protect changes the permissions of all pages overlapping [va, va+size).
func (as *AddressSpace) Protect(va uint64, size int, perm Perm) error {
	if _, ok := as.index(va); !ok {
		return &Fault{Addr: va, Size: size, Kind: AccessWrite, OOB: true}
	}
	if _, ok := as.index(va + uint64(size) - 1); !ok {
		return &Fault{Addr: va + uint64(size) - 1, Size: size, Kind: AccessWrite, OOB: true}
	}
	as.setPerm(va, size, perm)
	return nil
}

// PermAt returns the permissions of the page containing va.
//
//tclint:allow deadexport the linker tests read the page permissions a load sets through it
func (as *AddressSpace) PermAt(va uint64) (Perm, bool) {
	i, ok := as.index(va)
	if !ok {
		return 0, false
	}
	return as.perms[i/PageSize].declared(), true
}

// Regions returns the named allocations.
func (as *AddressSpace) Regions() []Region {
	out := make([]Region, len(as.regions))
	copy(out, as.regions)
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// check verifies an access against the declared permissions, returning a
// Fault on violation. It leaves stale pages stale: commit scrubs them.
func (as *AddressSpace) check(va uint64, size int, kind AccessKind) error {
	i, ok := as.index(va)
	if !ok {
		return &Fault{Addr: va, Size: size, Kind: kind, OOB: true}
	}
	if size <= 0 {
		return nil
	}
	if _, ok := as.index(va + uint64(size) - 1); !ok {
		return &Fault{Addr: va, Size: size, Kind: kind, OOB: true}
	}
	var want Perm
	switch kind {
	case AccessRead:
		want = PermR
	case AccessWrite:
		want = PermW
	case AccessExec:
		want = PermX
	}
	first := i / PageSize
	last := (i + size - 1) / PageSize
	for p := first; p <= last; p++ {
		perm := as.perms[p].declared()
		if perm&want == 0 {
			return &Fault{Addr: va, Size: size, Kind: kind, Perm: perm}
		}
	}
	return nil
}

// slowIdx is the checked path every accessor shares: it verifies the
// access, commits its range and returns the data index.
func (as *AddressSpace) slowIdx(va uint64, size int, kind AccessKind) (int, error) {
	if err := as.check(va, size, kind); err != nil {
		return 0, err
	}
	i := int(va - Base)
	as.commit(i, size)
	return i, nil
}

// ReadBytes copies size bytes at va into a fresh slice.
//
//tclint:allow deadexport the ucx tests read what a put landed through it
func (as *AddressSpace) ReadBytes(va uint64, size int) ([]byte, error) {
	i, err := as.slowIdx(va, size, AccessRead)
	if err != nil {
		return nil, err
	}
	out := make([]byte, size)
	copy(out, as.data[i:i+size])
	return out, nil
}

// View returns a slice aliasing the underlying storage for [va, va+size).
// Callers must treat it as ephemeral — the next Alloc may remap the
// backing; it is used by the NIC DMA path and the VM fetch path to avoid
// copying.
func (as *AddressSpace) View(va uint64, size int) ([]byte, error) {
	i, err := as.slowIdx(va, size, AccessRead)
	if err != nil {
		return nil, err
	}
	return as.data[i : i+size : i+size], nil
}

// ViewMut returns a writable slice aliasing [va, va+size), checking the
// page write permission. Ephemeral like View: not valid across an Alloc.
func (as *AddressSpace) ViewMut(va uint64, size int) ([]byte, error) {
	i, err := as.slowIdx(va, size, AccessWrite)
	if err != nil {
		return nil, err
	}
	return as.data[i : i+size : i+size], nil
}

// ViewDMA returns a slice aliasing [va, va+size) ignoring page
// permissions, as a NIC's DMA engine does. Like View the slice is
// ephemeral: it must not be held across an Alloc. It exists so hot
// receive paths (signal polling, frame parsing) read frames without
// copying.
func (as *AddressSpace) ViewDMA(va uint64, size int) ([]byte, error) {
	i, ok := as.index(va)
	if !ok || size < 0 || i+size > as.capacity {
		return nil, &Fault{Addr: va, Size: size, Kind: AccessRead, OOB: true}
	}
	as.commit(i, size)
	return as.data[i : i+size : i+size], nil
}

// WriteBytes stores b at va, honouring page permissions.
func (as *AddressSpace) WriteBytes(va uint64, b []byte) error {
	i, err := as.slowIdx(va, len(b), AccessWrite)
	if err != nil {
		return err
	}
	copy(as.data[i:], b)
	return nil
}

// WriteBytesDMA stores b at va ignoring page permissions, as a NIC's DMA
// engine does: RDMA access control is the rkey check, performed by the
// simnet layer before delivery, not the CPU page tables.
func (as *AddressSpace) WriteBytesDMA(va uint64, b []byte) error {
	i, ok := as.index(va)
	if !ok || i+len(b) > as.capacity {
		return &Fault{Addr: va, Size: len(b), Kind: AccessWrite, OOB: true}
	}
	as.commit(i, len(b))
	copy(as.data[i:], b)
	return nil
}

// ReadBytesDMA reads ignoring page permissions (RDMA read path).
func (as *AddressSpace) ReadBytesDMA(va uint64, size int) ([]byte, error) {
	i, ok := as.index(va)
	if !ok || size < 0 || i+size > as.capacity {
		return nil, &Fault{Addr: va, Size: size, Kind: AccessRead, OOB: true}
	}
	as.commit(i, size)
	out := make([]byte, size)
	copy(out, as.data[i:i+size])
	return out, nil
}

// Typed accessors. All are little-endian, matching the JAM encoding.
//
// Each has a fast path for the overwhelmingly common access: inside the
// mapped prefix, not straddling a page, page permission granted. The
// conditions imply exactly what check()+commit() would establish, so
// results are bit-identical; anything else (unmapped tail growth, page
// straddles, a stale page of a recycled backing, faults) takes the checked
// path.

// fastIdx returns the data index for a size-byte access at va when the
// whole access stays within one page of the already-mapped prefix and
// the page grants want; ok=false falls back to the checked slow path.
func (as *AddressSpace) fastIdx(va uint64, size int, want Perm) (int, bool) {
	i := va - Base
	if va < Base || i+uint64(size) > uint64(len(as.data)) {
		return 0, false
	}
	if i&(PageSize-1) > PageSize-uint64(size) {
		return 0, false // straddles a page boundary
	}
	if as.perms[i/PageSize]&want == 0 {
		return 0, false
	}
	return int(i), true
}

// FastRead64 is the single-shot inlinable variant of ReadU64's fast
// path for hot interpreter loops: ok=false means the caller must
// take ReadU64 (checked) to get the value or the exact fault. The
// guards mirror fastIdx(va, 8, PermR) verbatim.
func (as *AddressSpace) FastRead64(va uint64) (uint64, bool) {
	i := va - Base
	if va < Base || i+8 > uint64(len(as.data)) ||
		i&(PageSize-1) > PageSize-8 || as.perms[i/PageSize]&PermR == 0 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(as.data[i:]), true
}

// FastWrite64 is the store-side twin of FastRead64; ok=false means the
// caller must take WriteU64 for the checked outcome.
func (as *AddressSpace) FastWrite64(va uint64, v uint64) bool {
	i := va - Base
	if va < Base || i+8 > uint64(len(as.data)) ||
		i&(PageSize-1) > PageSize-8 || as.perms[i/PageSize]&PermW == 0 {
		return false
	}
	binary.LittleEndian.PutUint64(as.data[i:], v)
	return true
}

func (as *AddressSpace) ReadU8(va uint64) (uint64, error) {
	if i, ok := as.fastIdx(va, 1, PermR); ok {
		return uint64(as.data[i]), nil
	}
	return as.readSlow(va, 1)
}

func (as *AddressSpace) ReadU16(va uint64) (uint64, error) {
	if i, ok := as.fastIdx(va, 2, PermR); ok {
		return uint64(binary.LittleEndian.Uint16(as.data[i:])), nil
	}
	return as.readSlow(va, 2)
}

func (as *AddressSpace) ReadU32(va uint64) (uint64, error) {
	if i, ok := as.fastIdx(va, 4, PermR); ok {
		return uint64(binary.LittleEndian.Uint32(as.data[i:])), nil
	}
	return as.readSlow(va, 4)
}

func (as *AddressSpace) ReadU64(va uint64) (uint64, error) {
	if i, ok := as.fastIdx(va, 8, PermR); ok {
		return binary.LittleEndian.Uint64(as.data[i:]), nil
	}
	return as.readSlow(va, 8)
}

func (as *AddressSpace) WriteU8(va uint64, v uint64) error {
	if i, ok := as.fastIdx(va, 1, PermW); ok {
		as.data[i] = byte(v)
		return nil
	}
	return as.writeSlow(va, 1, v)
}

func (as *AddressSpace) WriteU16(va uint64, v uint64) error {
	if i, ok := as.fastIdx(va, 2, PermW); ok {
		binary.LittleEndian.PutUint16(as.data[i:], uint16(v))
		return nil
	}
	return as.writeSlow(va, 2, v)
}

func (as *AddressSpace) WriteU32(va uint64, v uint64) error {
	if i, ok := as.fastIdx(va, 4, PermW); ok {
		binary.LittleEndian.PutUint32(as.data[i:], uint32(v))
		return nil
	}
	return as.writeSlow(va, 4, v)
}

func (as *AddressSpace) WriteU64(va uint64, v uint64) error {
	if i, ok := as.fastIdx(va, 8, PermW); ok {
		binary.LittleEndian.PutUint64(as.data[i:], v)
		return nil
	}
	return as.writeSlow(va, 8, v)
}

// readSlow is the typed readers' checked path: a size-byte
// little-endian load.
func (as *AddressSpace) readSlow(va uint64, size int) (uint64, error) {
	i, err := as.slowIdx(va, size, AccessRead)
	if err != nil {
		return 0, err
	}
	var b [8]byte
	copy(b[:], as.data[i:i+size])
	return binary.LittleEndian.Uint64(b[:]), nil
}

// writeSlow is the typed writers' checked path: it stores the low size
// bytes of v, little-endian.
func (as *AddressSpace) writeSlow(va uint64, size int, v uint64) error {
	i, err := as.slowIdx(va, size, AccessWrite)
	if err != nil {
		return err
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	copy(as.data[i:i+size], b[:size])
	return nil
}

// FetchCheck verifies that [va, va+size) is executable.
func (as *AddressSpace) FetchCheck(va uint64, size int) error {
	return as.check(va, size, AccessExec)
}

// ReadCString reads a NUL-terminated string starting at va, up to max bytes.
func (as *AddressSpace) ReadCString(va uint64, max int) (string, error) {
	out := make([]byte, 0, 32)
	for n := 0; n < max; n++ {
		b, err := as.ReadU8(va + uint64(n))
		if err != nil {
			return "", err
		}
		if b == 0 {
			return string(out), nil
		}
		out = append(out, byte(b))
	}
	return string(out), fmt.Errorf("mem: unterminated string at 0x%x", va)
}
