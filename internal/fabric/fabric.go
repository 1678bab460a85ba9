// Package fabric defines the pluggable interconnect backend interface the
// Two-Chains runtime is built against. The runtime layers (ucx, mailbox,
// core, tc) speak only to Transport and Port, so the interconnect model
// under a deployment can change without the upper layers changing.
//
// Three backends ship in-tree; core.MeshConfig.Backend selects one by
// name:
//
//   - "simnet" (package internal/simnet, the default): the paper-testbed
//     RDMA model — per-direction wires, NIC tx queues, fabric-shard spine
//     uplinks, protocol-tier costs, optional unordered delivery.
//   - "ideal": a contention-free fabric implemented in this package. Puts
//     pay only base latency plus wire time, never queueing. It is the
//     upper-bound ablation: the gap between "ideal" and "simnet" numbers
//     is the cost of the modeled interconnect.
//   - "chaos": a wrapper around another backend that perturbs each put's
//     issue time within declared bounds (see ChaosConfig).
//
// The interface is what the paper's runtime needs from its communication
// framework: register memory and hand out an rkey, put one-sided into a
// remote mailbox, and fence on fabrics without write ordering. A Port has
// six methods — RegisterMemory, Put, Fence, AddDeliveryHookRange,
// AddressSpace and Label — and a Transport three: Engine, Attach and
// AssignDomain. Registration, the rkey check, the delivery hooks and the
// landing of a put live once, in Host, which every backend's port embeds.
package fabric

import (
	"twochains/internal/mem"
	"twochains/internal/memsim"
	"twochains/internal/sim"
)

// RKey is an InfiniBand-style 32-bit remote access key. A put with an
// invalid or mismatched rkey is rejected at the (simulated) hardware level.
type RKey uint32

// Access is the remote permission mask carried by a registration.
type Access uint8

const (
	RemoteRead Access = 1 << iota
	RemoteWrite
)

// PutResult reports the outcome of a one-sided operation to its initiator.
type PutResult struct {
	Err       error
	Delivered sim.Time // delivery time at the target (zero on error)
}

// Port is one host's attachment to the fabric: the NIC-level surface the
// runtime uses. A Port only talks to Ports of the same Transport.
type Port interface {
	// RegisterMemory pins [base, base+size) for remote access and returns
	// the rkey peers must present — the exchange step of an RDMA setup.
	RegisterMemory(base uint64, size int, access Access) (RKey, error)
	// Put issues a one-sided write of size bytes from the local srcVA to
	// dstVA on the destination port, authorized by key. Delivery happens
	// with no destination-CPU involvement; onComplete fires at the
	// initiator with the delivery time (or the rejection error).
	Put(dst Port, srcVA, dstVA uint64, size int, key RKey, onComplete func(PutResult))
	// Fence orders later puts to dst after all earlier ones — the explicit
	// primitive for fabrics without a write-order guarantee.
	Fence(dst Port)
	// AddDeliveryHookRange registers an observer invoked only for puts
	// intersecting [base, base+size) — the scalable form for per-region
	// watchers like mailbox receivers and credit-flag arrays.
	AddDeliveryHookRange(base uint64, size int, fn func(va uint64, size int))
	// AddressSpace returns the host memory this port DMAs into.
	AddressSpace() *mem.AddressSpace
	// Label names the port for diagnostics.
	Label() string
}

// Transport is one interconnect backend instance: it attaches hosts
// (endpoint create) and places them into fabric shards.
type Transport interface {
	// Engine is the discrete-event clock every operation schedules on.
	Engine() *sim.Engine
	// Attach adds a host to the fabric. hier may be nil (no cache model);
	// when present, inbound traffic is stashed through it.
	Attach(as *mem.AddressSpace, hier *memsim.Hierarchy) Port
	// AssignDomain places a port into a fabric shard (leaf domain).
	// Backends without a topology model may ignore it.
	AssignDomain(p Port, domain int)
}

// Config sets backend-independent fabric characteristics; backends are free
// to ignore fields their model has no use for.
type Config struct {
	// Ordered selects the in-order write delivery guarantee between host
	// pairs (true on the paper's testbed).
	Ordered bool
	// Seed drives the backend's stochastic models (rkey generation,
	// delivery jitter).
	Seed uint64
}
