package fabric

import (
	"fmt"

	"twochains/internal/mem"
	"twochains/internal/memsim"
	"twochains/internal/sim"
)

// Host is the target side every backend's port shares: the memory a put
// lands in, the registrations and rkeys that authorize it, and the
// observers that watch it land. A backend embeds a Host and adds only its
// timing model — when a put issues, when it arrives, what it queues
// behind.
type Host struct {
	as     *mem.AddressSpace
	hier   *memsim.Hierarchy // may be nil
	keyRng *sim.RNG
	regs   map[RKey]registration
	// hooks run in registration order; each fires only for puts that
	// intersect its window, so a node with many mailbox regions pays one
	// callback per delivery, not one per region.
	hooks []deliveryHook
}

// registration is one pinned, remotely accessible range. RegisterMemory
// guarantees base+size neither wraps nor leaves the address space.
type registration struct {
	base, size uint64
	access     Access
}

// deliveryHook observes the inbound puts intersecting [base, end).
type deliveryHook struct {
	base, end uint64
	fn        func(va uint64, size int)
}

// NewHost builds the target-side state of one port over as, stashing
// inbound traffic through hier when it is non-nil. keyRng draws the
// port's rkeys.
func NewHost(as *mem.AddressSpace, hier *memsim.Hierarchy, keyRng *sim.RNG) Host {
	return Host{as: as, hier: hier, keyRng: keyRng, regs: map[RKey]registration{}}
}

// AddressSpace returns the host memory the port DMAs into.
func (h *Host) AddressSpace() *mem.AddressSpace { return h.as }

// RegisterMemory pins [base, base+size) for remote access and returns its
// rkey. Mirroring the IBTA model, the key is drawn per registration and
// must be conveyed to peers out of band.
func (h *Host) RegisterMemory(base uint64, size int, access Access) (RKey, error) {
	if size <= 0 {
		return 0, fmt.Errorf("fabric: register: non-positive size")
	}
	end := base + uint64(size)
	if end < base {
		return 0, fmt.Errorf("fabric: register: [0x%x,+%d) wraps past the top of the address space", base, size)
	}
	if _, err := h.as.ReadBytesDMA(base, 1); err != nil {
		return 0, fmt.Errorf("fabric: register: base unmapped: %w", err)
	}
	if _, err := h.as.ReadBytesDMA(end-1, 1); err != nil {
		return 0, fmt.Errorf("fabric: register: end unmapped: %w", err)
	}
	var key RKey
	for {
		key = RKey(h.keyRng.Uint64())
		if key == 0 {
			continue
		}
		if _, dup := h.regs[key]; !dup {
			break
		}
	}
	h.regs[key] = registration{base: base, size: uint64(size), access: access}
	return key, nil
}

// AddDeliveryHookRange registers an observer invoked only for puts that
// intersect [base, base+size) — the form for per-region watchers like
// mailbox receivers and credit-flag arrays.
func (h *Host) AddDeliveryHookRange(base uint64, size int, fn func(va uint64, size int)) {
	h.hooks = append(h.hooks, deliveryHook{base: base, end: base + uint64(size), fn: fn})
}

// CheckPut validates an inbound put of size bytes at va against the
// registration key names: the hardware NAK. The range test subtracts
// instead of adding, so a put whose end would wrap past 2⁶⁴ is refused
// rather than compared modulo 2⁶⁴; and va itself must lie inside the
// registration, so a zero-length put cannot name the byte past its end.
func (h *Host) CheckPut(key RKey, va uint64, size int) error {
	reg, ok := h.regs[key]
	if !ok {
		return fmt.Errorf("fabric: invalid rkey %#x", key)
	}
	if off := va - reg.base; size < 0 || va < reg.base || off >= reg.size || uint64(size) > reg.size-off {
		return fmt.Errorf("fabric: access [0x%x,+%d) outside registration [0x%x,+%d)",
			va, size, reg.base, reg.size)
	}
	if reg.access&RemoteWrite == 0 {
		return fmt.Errorf("fabric: registration %#x lacks remote-write permission", key)
	}
	return nil
}

// Land performs the target-side effects of a put that passed CheckPut:
// the DMA write, the stash into the cache model, then every hook whose
// window the put intersects.
func (h *Host) Land(va uint64, data []byte) {
	// CheckPut placed the put inside a registration, RegisterMemory placed
	// every registration inside the space, and a space keeps its capacity
	// until Release, which comes after its last event. Failure here is a
	// model bug, not bad input.
	if err := h.as.WriteBytesDMA(va, data); err != nil {
		panic(fmt.Sprintf("fabric: delivery DMA failed inside registration: %v", err))
	}
	size := len(data)
	if h.hier != nil {
		h.hier.NetworkWrite(va, size)
	}
	for _, k := range h.hooks {
		if va < k.end && va+uint64(size) > k.base {
			k.fn(va, size)
		}
	}
}
