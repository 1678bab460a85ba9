// Fixture: a memsim.Hierarchy after Release — its tag arrays are in the
// pool and the next hierarchy built may own them. A fresh New starts a new
// ownership epoch.
package fixture

import "twochains/internal/memsim"

func hierarchyAfterRelease(h *memsim.Hierarchy, addr uint64) {
	h.Release()
	_ = h.Access(addr, 8, memsim.Read) // want `use of memsim\.Hierarchy h after Release`
}

func hierarchyRebuilt(h *memsim.Hierarchy, addr uint64) {
	h.Release()
	h = memsim.New(memsim.DefaultConfig())
	_ = h.Access(addr, 8, memsim.Read)
}
