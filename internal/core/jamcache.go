package core

import (
	"fmt"
	"sort"

	"twochains/internal/mailbox"
)

// jamCacheKey identifies a prepared jam: the element (by its integer
// installed-package and element IDs, resolved before the cache is
// consulted — no string building or string hashing on the lookup path)
// plus a fingerprint of the receiver namespace it was bound against. Two
// channels whose receivers expose identical namespaces (the common case
// in a mesh, where every node installs the same packages in the same
// order) share one prepared image.
type jamCacheKey struct {
	pkgID, elemID uint8
	nsFP          uint64
}

// jamCacheGenerations bounds the live namespace generations cached per
// element. Distinct fingerprints coexist legitimately (channels to
// receivers with different namespaces), but ried hot-swaps keep minting
// new ones; beyond the cap the oldest binding is evicted and would simply
// rebind on next use.
const jamCacheGenerations = 8

// jamCache is the per-sender prepared-jam cache. Binding a jam's
// travelling GOT against a receiver namespace is the expensive part of an
// inject; the cache performs it once per element + receiver-namespace and
// reuses the image across every channel and message. A receiver-side ried
// load changes the namespace fingerprint, so stale images stop being
// referenced and age out of the per-element generation ring.
type jamCache struct {
	entries map[jamCacheKey]*preparedJam
	// gens tracks insertion order of fingerprints per element, oldest
	// first, for generation eviction.
	gens map[[2]uint8][]jamCacheKey
	// binds counts the binds performed (cache misses), hits the lookups
	// served from the cache.
	binds, hits uint64
}

func newJamCache() *jamCache {
	return &jamCache{
		entries: map[jamCacheKey]*preparedJam{},
		gens:    map[[2]uint8][]jamCacheKey{},
	}
}

// nsFingerprint hashes a namespace snapshot (FNV-1a over sorted
// name=va pairs) into the cache key component.
func nsFingerprint(names map[string]uint64) uint64 {
	keys := make([]string, 0, len(names))
	for k := range names {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) { h = (h ^ uint64(b)) * prime64 }
	for _, k := range keys {
		for i := 0; i < len(k); i++ {
			mix(k[i])
		}
		mix(0)
		va := names[k]
		for i := 0; i < 8; i++ {
			mix(byte(va >> (8 * i)))
		}
	}
	return h
}

// prepare returns the prepared image of the element bound against the
// given receiver namespace, binding and caching it on first use. The
// element is resolved to its integer IDs first, so the cache lookup hashes
// a small fixed-size key instead of building strings.
func (c *jamCache) prepare(src *Node, pkgName, elemName, dstName string, names map[string]uint64, nsFP uint64) (*preparedJam, error) {
	inst, ok := src.Package(pkgName)
	if !ok {
		return nil, fmt.Errorf("core: %s: package %s not installed on sender", src.Name, pkgName)
	}
	elem, ok := inst.Pkg.Element(elemName)
	if !ok || elem.Kind != ElemJam {
		return nil, fmt.Errorf("core: %s: no jam %q in package %s", src.Name, elemName, pkgName)
	}
	key := jamCacheKey{pkgID: inst.ID, elemID: elem.ID, nsFP: nsFP}
	if pj, ok := c.entries[key]; ok {
		c.hits++
		return pj, nil
	}
	pj, err := bindJam(src, inst, elem, dstName, names)
	if err != nil {
		return nil, err
	}
	c.binds++
	c.entries[key] = pj
	id := [2]uint8{inst.ID, elem.ID}
	c.gens[id] = append(c.gens[id], key)
	if g := c.gens[id]; len(g) > jamCacheGenerations {
		delete(c.entries, g[0])
		c.gens[id] = g[1:]
	}
	return pj, nil
}

// invalidate drops every prepared image bound against the given
// namespace fingerprint — the DBI-style translation-cache invalidation a
// node failure forces on its peers. Entries are shared across channels
// whose receivers expose identical namespaces, so peers of the failed
// node that kept identical twins re-bind on next use (a lookup miss, not
// a correctness hazard). Returns the number of entries dropped.
func (c *jamCache) invalidate(nsFP uint64) int {
	dropped := 0
	for key := range c.entries {
		if key.nsFP != nsFP {
			continue
		}
		delete(c.entries, key)
		dropped++
		id := [2]uint8{key.pkgID, key.elemID}
		g := c.gens[id]
		for i := range g {
			if g[i] == key {
				c.gens[id] = append(g[:i], g[i+1:]...)
				break
			}
		}
	}
	return dropped
}

// bindJam binds a jam element's extern GOT entries against a receiver
// namespace snapshot, producing the shippable image.
func bindJam(src *Node, inst *InstalledPackage, elem *Element, dstName string, names map[string]uint64) (*preparedJam, error) {
	elemName := elem.Name
	j := elem.Jam

	pj := &preparedJam{
		gotLen:  j.GotTableLen(),
		textLen: j.TextLen,
		entry:   j.Entry,
		pkgID:   inst.ID,
		elemID:  elem.ID,
	}
	// Image: [GOT table][gp slot placeholder][body].
	pj.image = make([]byte, j.ShippedSize())
	copy(pj.image[pj.gotLen+8:], j.Body)
	for i, g := range j.Got {
		if g.Local {
			pj.patches = append(pj.patches, mailbox.GotPatch{Slot: i, BodyOff: g.Off})
			continue
		}
		va, ok := names[g.Name]
		if !ok {
			return nil, fmt.Errorf("core: %s->%s: jam %s needs symbol %q, absent from receiver namespace (load the ried first)",
				src.Name, dstName, elemName, g.Name)
		}
		putU64(pj.image[i*8:], va)
	}
	return pj, nil
}
