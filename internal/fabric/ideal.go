package fabric

import (
	"fmt"

	"twochains/internal/mem"
	"twochains/internal/memsim"
	"twochains/internal/model"
	"twochains/internal/sim"
)

func init() {
	Register("ideal", NewIdeal)
}

// Ideal is the contention-free reference backend: every put pays the base
// one-way latency plus wire serialization time for its size, and nothing
// else — no NIC occupancy, no shared wires, no spine uplinks, no protocol
// jitter. Delivery to a given destination is always in order (a later put
// never lands before an earlier one), so Fence is a no-op. It exists as
// the upper-bound ablation
// for the modeled backends and as the reference implementation of the
// Transport contract.
type Ideal struct {
	eng   *sim.Engine
	ports []*idealPort
	rng   *sim.RNG
	// bufs recycles in-flight put staging copies, like simnet's fabric.
	bufs mem.Shelf[[]byte]
}

// NewIdeal constructs the ideal backend; it is registered as "ideal".
func NewIdeal(eng *sim.Engine, cfg Config) Transport {
	return &Ideal{eng: eng, rng: sim.NewRNG(cfg.Seed ^ 0x697f4561)}
}

// Engine returns the event clock.
func (f *Ideal) Engine() *sim.Engine { return f.eng }

// Attach adds a host port.
func (f *Ideal) Attach(as *mem.AddressSpace, hier *memsim.Hierarchy) Port {
	p := &idealPort{
		Host:        NewHost(as, hier, f.rng.Split()),
		fab:         f,
		id:          len(f.ports),
		lastArrival: map[int]sim.Time{},
	}
	f.ports = append(f.ports, p)
	return p
}

// AssignDomain is a no-op: the ideal fabric has no topology.
func (f *Ideal) AssignDomain(Port, int) {}

type idealPort struct {
	Host
	fab *Ideal
	id  int
	// lastArrival enforces in-order delivery per destination: a put may
	// not land before an earlier put to the same peer, even when its
	// smaller size gives it a shorter wire time. This is what makes the
	// no-op Fence sound.
	lastArrival map[int]sim.Time
}

func (p *idealPort) Label() string { return fmt.Sprintf("ideal%d", p.id) }

// Put copies the bytes after the ideal one-way delay: base latency plus
// wire time, unconditionally — the fabric itself is never the bottleneck.
// Delivery to one destination is in order: a later (smaller) put never
// overtakes an earlier one, so the write-order guarantee holds and Fence
// can remain a no-op.
func (p *idealPort) Put(dst Port, srcVA, dstVA uint64, size int, key RKey, onComplete func(PutResult)) {
	eng := p.fab.eng
	d, ok := dst.(*idealPort)
	if !ok {
		eng.After(0, func() {
			if onComplete != nil {
				onComplete(PutResult{Err: fmt.Errorf("fabric: ideal: destination %s is not an ideal port", dst.Label())})
			}
		})
		return
	}
	src, err := p.AddressSpace().ViewDMA(srcVA, size)
	if err != nil {
		eng.After(0, func() {
			if onComplete != nil {
				onComplete(PutResult{Err: fmt.Errorf("fabric: ideal: local DMA read: %w", err)})
			}
		})
		return
	}
	data := mem.GetBytes(&p.fab.bufs, size)
	copy(data, src)
	arrival := eng.Now().Add(model.PutBaseLat + model.WireTime(size))
	if last := p.lastArrival[d.id]; arrival < last {
		arrival = last
	}
	p.lastArrival[d.id] = arrival
	if err := d.CheckPut(key, dstVA, size); err != nil {
		mem.PutBytes(&p.fab.bufs, data)
		eng.At(arrival, func() {
			if onComplete != nil {
				onComplete(PutResult{Err: err})
			}
		})
		return
	}
	eng.At(arrival, func() {
		d.Land(dstVA, data)
		mem.PutBytes(&p.fab.bufs, data)
		if onComplete != nil {
			onComplete(PutResult{Delivered: eng.Now()})
		}
	})
}

// Fence is a no-op: per-destination deliveries are already in order (see
// Put), so there is nothing to serialize.
func (p *idealPort) Fence(Port) {}
