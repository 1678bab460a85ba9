// Package ucx models the communication framework the Two-Chains runtime
// plugs into (UCX in the paper): workers on a fabric transport, endpoints,
// memory registration, and a size-tiered protocol stack.
//
// Two put paths exist, mirroring §VII of the paper:
//
//   - Put is the standard library path with flow-control windows and
//     software completion tracking. It is the Fig. 5/6 baseline ("the
//     standard UCX put operation has more library overhead for flow
//     control and detecting message completion").
//   - PutThin is the lean path the reactive mailbox uses: the frame is
//     preformatted, flow control belongs to the mailbox banks, and no
//     completion queue is polled. It keeps no per-put state either: the
//     put is a ThinPut record the caller owns, left untouched from the
//     post until its OnDelivered fires.
//
// Both paths pay the protocol-tier overheads of the underlying library
// (short/eager/bcopy/zcopy), which is what produces the threshold
// irregularities of Fig. 7, and the rendezvous handshake for large
// messages.
package ucx

import (
	"twochains/internal/fabric"
	"twochains/internal/mem"
	"twochains/internal/memsim"
	"twochains/internal/model"
	"twochains/internal/sim"
)

// DefaultWindow is the standard path's outstanding-operation limit.
const DefaultWindow = 16

// Worker is a progress engine bound to one node: its NIC plus the CPU time
// the communication library consumes on that node.
type Worker struct {
	NIC  fabric.Port
	AS   *mem.AddressSpace
	Hier *memsim.Hierarchy
	// CPU serializes the library's software overheads on this node.
	CPU *sim.Resource
	// Eng is the fabric's engine: this worker's software costs schedule
	// on it.
	Eng *sim.Engine
	// Puts and PutBytes count the puts this worker handed its NIC and
	// the bytes they carried.
	Puts     uint64
	PutBytes uint64
}

// NewWorker attaches a node to the fabric transport. The transport is an
// abstract backend (fabric.Transport); "simnet" models the paper testbed,
// and alternate backends slot in without this package changing.
func NewWorker(f fabric.Transport, as *mem.AddressSpace, hier *memsim.Hierarchy) *Worker {
	return &Worker{
		NIC:  f.Attach(as, hier),
		AS:   as,
		Hier: hier,
		CPU:  new(sim.Resource),
		Eng:  f.Engine(),
	}
}

// RegisterMemory pins a region for remote access and returns its rkey.
func (w *Worker) RegisterMemory(base uint64, size int, access fabric.Access) (fabric.RKey, error) {
	return w.NIC.RegisterMemory(base, size, access)
}

// count records one put of size bytes handed to the NIC.
func (w *Worker) count(size int) {
	w.Puts++
	w.PutBytes += uint64(size)
}

// Endpoint is a connection from a local worker to a remote worker.
type Endpoint struct {
	Local  *Worker
	Remote *Worker

	window   int
	inflight int
	backlog  []func()
}

// Connect creates an endpoint to peer.
func (w *Worker) Connect(peer *Worker) *Endpoint {
	return &Endpoint{Local: w, Remote: peer, window: DefaultWindow}
}

func (ep *Endpoint) engine() *sim.Engine { return ep.Local.Eng }

// Put performs a standard one-sided put with the full library path:
// posting overhead, protocol tier selection (including the rendezvous
// handshake for large messages), a flow-control window, and completion
// processing. onComplete fires when the operation completes at the sender.
func (ep *Endpoint) Put(srcVA, dstVA uint64, size int, key fabric.RKey, onComplete func(error, sim.Time)) {
	issue := func() {
		eng := ep.engine()
		tier := model.TierFor(size)
		// Window accounting grows with occupancy: a lone latency-test put
		// pays almost nothing, a saturated pipeline pays the full cost —
		// matching how credit bookkeeping behaves in the real library.
		flow := sim.Duration(float64(model.UcxFlowOverhead) * float64(ep.inflight) / float64(ep.window))
		swCost := model.UcxPostOverhead + flow + tier.Overhead + model.DoorbellLat
		postDone := ep.Local.CPU.Claim(eng.Now(), swCost)

		fire := func() {
			ep.Local.count(size)
			ep.Local.NIC.Put(ep.Remote.NIC, srcVA, dstVA, size, key, func(res fabric.PutResult) {
				// Completion detection costs CPU on the sender.
				compDone := ep.Local.CPU.Claim(eng.Now(), model.UcxCompOverhead)
				eng.At(compDone, func() {
					ep.release()
					if onComplete != nil {
						onComplete(res.Err, res.Delivered)
					}
				})
			})
		}
		if tier.Name == "rndv" {
			// Rendezvous: RTS/CTS exchange before the payload moves.
			eng.At(postDone.Add(2*model.PutBaseLat), fire)
		} else {
			eng.At(postDone, fire)
		}
	}
	if ep.inflight >= ep.window {
		ep.backlog = append(ep.backlog, issue)
		return
	}
	ep.inflight++
	issue()
}

func (ep *Endpoint) release() {
	ep.inflight--
	if len(ep.backlog) > 0 && ep.inflight < ep.window {
		next := ep.backlog[0]
		ep.backlog = ep.backlog[1:]
		ep.inflight++
		next()
	}
}

// ThinPut is one thin put, a record the caller owns: the thin path keeps
// no per-put state of its own. The caller fills the exported fields,
// posts it with PutThin or PutThinFenced, and must not change it until
// OnDelivered fires (with a nil OnDelivered, until the put has landed).
// A record may be re-posted from its own OnDelivered.
type ThinPut struct {
	SrcVA, DstVA uint64
	Size         int
	Key          fabric.RKey
	// OnDelivered, when non-nil, fires at the receiver-side delivery
	// time, or with the error of a put the target refused.
	OnDelivered func(fabric.PutResult)

	ep   *Endpoint
	fire func() // prebound hand-off, bound at the record's first post
}

// handOff gives the put to the NIC.
func (p *ThinPut) handOff() {
	ep := p.ep
	ep.Local.count(p.Size)
	ep.Local.NIC.Put(ep.Remote.NIC, p.SrcVA, p.DstVA, p.Size, p.Key, p.OnDelivered)
}

// PutThin is the reactive-mailbox send path: the caller has already packed
// the frame and manages its own credits, so the library only pays pack,
// post, doorbell, and the protocol tier cost. Frames go through the same
// protocol stack as any UCX message (the Fig. 7 threshold artifacts come
// from exactly this), including the rendezvous handshake for very large
// frames — but the handshakes of different mailbox slots overlap, so
// pipelined streams remain wire-bound. The put moves p.Size bytes from
// p.SrcVA to p.DstVA; the caller owns p and gets it back when
// p.OnDelivered fires (see ThinPut).
func (ep *Endpoint) PutThin(p *ThinPut) {
	eng := ep.engine()
	tier := model.TierFor(p.Size)
	swCost := model.AmPackOverhead + model.AmPostOverhead + tier.Overhead + model.DoorbellLat
	postDone := ep.Local.CPU.Claim(eng.Now(), swCost)
	p.ep = ep
	if p.fire == nil {
		p.fire = p.handOff
	}
	if tier.Name == "rndv" {
		// Handshake delay; not serialized through any resource, so
		// concurrent mailbox slots overlap their handshakes.
		postDone = postDone.Add(2 * model.PutBaseLat)
	}
	eng.At(postDone, p.fire)
}

// PutThinFenced is the mailbox send path for fabrics without the
// write-order guarantee (paper Fig. 1): the frame body (p.Size bytes)
// goes in one put, a fence follows, and the signal (the next sigLen
// bytes) goes in a separate put that cannot be delivered ahead of the
// body. The three steps issue atomically with respect to simulated time
// so the fence covers exactly the body put. p.OnDelivered fires once, at
// the signal's delivery, with the body's error if the signal had none.
func (ep *Endpoint) PutThinFenced(p *ThinPut, sigLen int) {
	eng := ep.engine()
	tier := model.TierFor(p.Size)
	swCost := model.AmPackOverhead + 2*model.AmPostOverhead + tier.Overhead +
		2*model.DoorbellLat + model.FenceOverhead
	postDone := ep.Local.CPU.Claim(eng.Now(), swCost)
	if tier.Name == "rndv" {
		// Same handshake the single-put path pays (see PutThin).
		postDone = postDone.Add(2 * model.PutBaseLat)
	}
	eng.At(postDone, func() {
		var bodyErr error
		ep.Local.count(p.Size)
		ep.Local.NIC.Put(ep.Remote.NIC, p.SrcVA, p.DstVA, p.Size, p.Key, func(res fabric.PutResult) {
			bodyErr = res.Err
		})
		ep.Local.NIC.Fence(ep.Remote.NIC)
		ep.Local.count(sigLen)
		ep.Local.NIC.Put(ep.Remote.NIC, p.SrcVA+uint64(p.Size), p.DstVA+uint64(p.Size), sigLen, p.Key,
			func(res fabric.PutResult) {
				if p.OnDelivered != nil {
					if res.Err == nil {
						res.Err = bodyErr
					}
					p.OnDelivered(res)
				}
			})
	})
}
