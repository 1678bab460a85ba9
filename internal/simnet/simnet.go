// Package simnet simulates the RDMA interconnect of the paper's testbed:
// two (or more) hosts with ConnectX-6-class HCAs connected back-to-back.
//
// It provides the InfiniBand semantics Two-Chains depends on:
//
//   - memory registration with 32-bit remote keys (rkeys); a put with an
//     invalid or mismatched rkey is "rejected at the hardware level";
//   - one-sided PUT (RDMA write) that completes without receiver CPU
//     involvement;
//   - a configurable in-order delivery guarantee: modern back-to-back
//     links enforce write ordering (the paper's testbed does), but the
//     mailbox supports fence + separate signal put when it is absent;
//   - LLC stashing of inbound traffic via the receiver's memsim hierarchy.
//
// Time is discrete-event simulated; data movement is real (bytes are
// copied between the nodes' address spaces through the DMA paths).
// Registration, the rkey check, delivery hooks and landing are the shared
// fabric.Host every NIC embeds; this package adds the NIC's timing.
package simnet

import (
	"fmt"

	"twochains/internal/fabric"
	"twochains/internal/mem"
	"twochains/internal/memsim"
	"twochains/internal/model"
	"twochains/internal/sim"
)

// RKey is an InfiniBand-style 32-bit remote access key.
type RKey = fabric.RKey

// RemoteWrite is the remote permission a put target registers with.
const RemoteWrite = fabric.RemoteWrite

// Config sets fabric-wide characteristics (the backend-independent set;
// Seed additionally drives delivery jitter when Ordered is false).
type Config = fabric.Config

// DefaultConfig matches the paper's testbed.
func DefaultConfig() Config {
	return Config{Ordered: true, Seed: model.DefaultSeed}
}

// Fabric connects NICs with per-direction wires. It implements
// fabric.Transport; core.MeshConfig selects it as the "simnet" backend.
type Fabric struct {
	eng  *sim.Engine
	cfg  Config
	nics []*NIC
	rng  *sim.RNG

	// shards holds the per-domain state of the leaf-domain partition.
	// Traffic inside one domain rides the dedicated back-to-back wires;
	// traffic between domains additionally serializes through a shared
	// directional uplink per domain pair — the oversubscribed spine of a
	// two-tier topology. NICs never assigned a domain stay in domain 0,
	// so a fabric that never calls AssignDomain behaves exactly as
	// before. Domain labels are arbitrary, so the map is keyed, not
	// indexed.
	shards map[int]*fabShard
}

// fabShard is one leaf domain: its spine uplinks (every issuer into a
// given remote domain contends on one), and the staging-buffer shelf and
// delivery-job free list of the puts its NICs issue.
type fabShard struct {
	uplinks map[int]*sim.Resource // keyed by destination domain
	bufs    mem.Shelf[[]byte]
	jobs    []*putJob
}

// putJob is the pooled in-flight state of one put between issue and
// delivery. Its prebound run method is the event the engine fires at
// arrival, so the steady-state delivery path schedules no fresh closures.
type putJob struct {
	sh         *fabShard
	dst        *NIC
	dstVA      uint64
	data       []byte
	onComplete func(PutResult)
	run        func() // prebound
}

func (sh *fabShard) getJob(dst *NIC, dstVA uint64, data []byte, onComplete func(PutResult)) *putJob {
	var j *putJob
	if n := len(sh.jobs); n > 0 {
		j = sh.jobs[n-1]
		sh.jobs[n-1] = nil
		sh.jobs = sh.jobs[:n-1]
	} else {
		j = &putJob{sh: sh}
		j.run = j.deliver
	}
	j.dst, j.dstVA, j.data, j.onComplete = dst, dstVA, data, onComplete
	return j
}

// deliver lands the put: memory write + stash + hooks, with the job
// recycled before the hooks run and the staging buffer before onComplete,
// so re-entrant sends reuse them immediately.
func (j *putJob) deliver() {
	sh, dst, dstVA, data, onComplete := j.sh, j.dst, j.dstVA, j.data, j.onComplete
	j.dst, j.data, j.onComplete = nil, nil, nil
	sh.jobs = append(sh.jobs, j)

	dst.Land(dstVA, data)
	mem.PutBytes(&sh.bufs, data)
	if onComplete != nil {
		onComplete(PutResult{Delivered: dst.fabric.eng.Now()})
	}
}

// NewFabric creates an empty fabric on the given event engine.
func NewFabric(engine *sim.Engine, cfg Config) *Fabric {
	return &Fabric{
		eng:    engine,
		cfg:    cfg,
		rng:    sim.NewRNG(cfg.Seed ^ 0x73696d6e6574), // "simnet"
		shards: map[int]*fabShard{},
	}
}

// Engine returns the event clock.
func (f *Fabric) Engine() *sim.Engine { return f.eng }

// Attach adds a host to the fabric (fabric.Transport).
func (f *Fabric) Attach(as *mem.AddressSpace, hier *memsim.Hierarchy) fabric.Port {
	return f.AttachNIC(as, hier)
}

// shard returns (creating lazily) the state of one domain.
func (f *Fabric) shard(domain int) *fabShard {
	sh, ok := f.shards[domain]
	if !ok {
		sh = &fabShard{uplinks: map[int]*sim.Resource{}}
		f.shards[domain] = sh
	}
	return sh
}

// AssignDomain places a port into a fabric shard. Domain numbers are
// arbitrary labels; equal labels share leaf-local wiring. Ports of other
// backends are ignored. It must be called before the port carries
// traffic.
func (f *Fabric) AssignDomain(p fabric.Port, domain int) {
	n, ok := p.(*NIC)
	if !ok {
		return
	}
	n.domain = domain
	n.shard = f.shard(domain)
}

// wire returns the directional wire resource from this NIC to dst.
func (n *NIC) wire(dst int) *sim.Resource {
	w, ok := n.wires[dst]
	if !ok {
		w = new(sim.Resource)
		n.wires[dst] = w
	}
	return w
}

// uplink returns the shared directional spine resource between two fabric
// shards. All NIC pairs crossing the same domain pair contend on it.
func (f *Fabric) uplink(srcDom, dstDom int) *sim.Resource {
	sh := f.shard(srcDom)
	u, ok := sh.uplinks[dstDom]
	if !ok {
		u = new(sim.Resource)
		sh.uplinks[dstDom] = u
	}
	return u
}

// NIC is one host adapter: the shared target side (registrations, hooks,
// landing) plus its transmit queue, wires and fence barriers.
type NIC struct {
	fabric.Host
	ID     int
	fabric *Fabric
	tx     *sim.Resource
	// jitterRng drives unordered-delivery jitter. It is per-NIC (split
	// deterministically at attach) so draws depend only on this NIC's own
	// issue sequence, never on the global interleaving of issuers.
	jitterRng *sim.RNG
	domain    int
	shard     *fabShard
	wires     map[int]*sim.Resource

	// barrier is the fence point per destination: puts issued after a
	// Fence are not delivered before it (used when Ordered is false).
	barrier map[int]sim.Time
}

// AttachNIC adds a host to the fabric. hier may be nil (no cache model).
func (f *Fabric) AttachNIC(as *mem.AddressSpace, hier *memsim.Hierarchy) *NIC {
	id := len(f.nics)
	n := &NIC{
		Host:      fabric.NewHost(as, hier, f.rng.Split()), // before jitterRng: keeps every rkey
		ID:        id,
		fabric:    f,
		tx:        new(sim.Resource),
		jitterRng: f.rng.Split(),
		shard:     f.shard(0),
		wires:     map[int]*sim.Resource{},
		barrier:   map[int]sim.Time{},
	}
	f.nics = append(f.nics, n)
	return n
}

// Label names the port for diagnostics (fabric.Port).
func (n *NIC) Label() string { return fmt.Sprintf("nic%d", n.ID) }

// PutResult reports the outcome of a one-sided operation to its initiator.
type PutResult = fabric.PutResult

// Put issues a one-sided RDMA write of size bytes from the local address
// srcVA to dstVA on the target NIC, authorized by key. Callbacks:
//
//   - onComplete fires at the initiator when the operation completes
//     locally (buffer reusable) or is rejected;
//   - delivery happens at the target with no CPU involvement: bytes land
//     in memory (stashed into LLC when enabled) and the delivery hook runs.
//
// The entire arrival time — tx occupancy, wire serialization, spine
// uplink contention — is computed at issue.
func (n *NIC) Put(dstPort fabric.Port, srcVA, dstVA uint64, size int, key RKey, onComplete func(PutResult)) {
	eng := n.fabric.eng
	dst, ok := dstPort.(*NIC)
	if !ok {
		eng.After(0, func() {
			if onComplete != nil {
				onComplete(PutResult{Err: fmt.Errorf("simnet: destination %s is not a simnet port", dstPort.Label())})
			}
		})
		return
	}
	// Snapshot the payload at issue time into a pooled staging buffer (the
	// sender may legitimately repack the slot before delivery); the buffer
	// returns to the pool the moment delivery lands.
	src, err := n.AddressSpace().ViewDMA(srcVA, size)
	if err != nil {
		eng.After(0, func() {
			if onComplete != nil {
				onComplete(PutResult{Err: fmt.Errorf("simnet: local DMA read: %w", err)})
			}
		})
		return
	}
	data := mem.GetBytes(&n.shard.bufs, size)
	copy(data, src)

	// NIC processing, then wire serialization.
	txDone := n.tx.Claim(eng.Now(), model.NicPerMsg)
	wireDone := n.wire(dst.ID).Claim(txDone, model.WireTime(size))
	if sd, dd := n.domain, dst.domain; sd != dd {
		// Cross-shard hop: serialize through the shared spine uplink and
		// pay the extra switch traversal.
		wireDone = n.fabric.uplink(sd, dd).Claim(wireDone, model.WireTime(size))
		wireDone = wireDone.Add(model.UplinkHopLat)
	}
	arrival := wireDone.Add(model.PutBaseLat - model.NicPerMsg) // base latency includes endpoint costs

	if !n.fabric.cfg.Ordered {
		// Unordered fabrics can reorder within a small window, but never
		// ahead of an explicit fence.
		jitter := sim.FromNanos(n.jitterRng.Exp(120))
		arrival = arrival.Add(jitter)
	}
	if b, ok := n.barrier[dst.ID]; ok && arrival < b {
		arrival = b
	}

	if err := dst.CheckPut(key, dstVA, size); err != nil {
		mem.PutBytes(&n.shard.bufs, data)
		eng.At(arrival, func() {
			if onComplete != nil {
				onComplete(PutResult{Err: err})
			}
		})
		return
	}

	eng.At(arrival, n.shard.getJob(dst, dstVA, data, onComplete).run)
}

// Fence guarantees that puts to dst issued after the fence are delivered
// no earlier than every put issued before it — the explicit ordering
// primitive needed on fabrics without the write-order guarantee
// (paper Fig. 1: "each signal put has to follow a fence operation").
func (n *NIC) Fence(dstPort fabric.Port) {
	dst, ok := dstPort.(*NIC)
	if !ok {
		return
	}
	latest := n.wire(dst.ID).FreeAt()
	if sd, dd := n.domain, dst.domain; sd != dd {
		// Cross-domain puts additionally ride the spine: cover the
		// uplink's queue and the extra hop, or a post-fence put clamped
		// to `latest` could overtake a pre-fence put still waiting there.
		if u := n.fabric.uplink(sd, dd).FreeAt(); u > latest {
			latest = u
		}
		latest = latest.Add(model.UplinkHopLat)
	}
	latest = latest.Add(model.PutBaseLat)
	if !n.fabric.cfg.Ordered {
		// Cover the jitter window too.
		latest = latest.Add(sim.FromNanos(1000))
	}
	if cur, ok := n.barrier[dst.ID]; !ok || latest > cur {
		n.barrier[dst.ID] = latest
	}
}
