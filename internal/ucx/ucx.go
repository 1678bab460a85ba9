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
//     completion queue is polled.
//
// Both paths pay the protocol-tier overheads of the underlying library
// (short/eager/bcopy/zcopy), which is what produces the threshold
// irregularities of Fig. 7; only the standard path adds the rendezvous
// handshake for large messages.
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
	// thinFree recycles thinOp records (see thinOp).
	thinFree []*thinOp
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

// thinOp is the recycled issue record of one thin put between post and
// NIC hand-off. Its prebound fire/complete methods replace the two
// closures the path used to allocate per message. Records live on the
// owning endpoint's freelist.
type thinOp struct {
	owner       *Endpoint
	ep          *Endpoint
	srcVA       uint64
	dstVA       uint64
	size        int
	key         fabric.RKey
	onDelivered func(error, sim.Time)
	fire        func()                 // prebound: hand the put to the NIC
	cb          func(fabric.PutResult) // prebound: recycle, then report delivery
}

func (ep *Endpoint) getThinOp() *thinOp {
	if n := len(ep.thinFree); n > 0 {
		op := ep.thinFree[n-1]
		ep.thinFree[n-1] = nil
		ep.thinFree = ep.thinFree[:n-1]
		return op
	}
	op := &thinOp{owner: ep}
	op.fire = op.doFire
	op.cb = op.complete
	return op
}

func (op *thinOp) doFire() {
	op.ep.Local.count(op.size)
	op.ep.Local.NIC.Put(op.ep.Remote.NIC, op.srcVA, op.dstVA, op.size, op.key, op.cb)
}

func (op *thinOp) complete(res fabric.PutResult) {
	onDelivered := op.onDelivered
	op.ep, op.onDelivered = nil, nil
	op.owner.thinFree = append(op.owner.thinFree, op)
	if onDelivered != nil {
		onDelivered(res.Err, res.Delivered)
	}
}

// PutThin is the reactive-mailbox send path: the caller has already packed
// the frame and manages its own credits, so the library only pays pack,
// post, doorbell, and the protocol tier cost. Frames go through the same
// protocol stack as any UCX message (the Fig. 7 threshold artifacts come
// from exactly this), including the rendezvous handshake for very large
// frames — but the handshakes of different mailbox slots overlap, so
// pipelined streams remain wire-bound. onDelivered fires at the
// receiver-side delivery time.
func (ep *Endpoint) PutThin(srcVA, dstVA uint64, size int, key fabric.RKey, onDelivered func(error, sim.Time)) {
	eng := ep.engine()
	tier := model.TierFor(size)
	swCost := model.AmPackOverhead + model.AmPostOverhead + tier.Overhead + model.DoorbellLat
	postDone := ep.Local.CPU.Claim(eng.Now(), swCost)
	op := ep.getThinOp()
	op.ep, op.srcVA, op.dstVA, op.size, op.key, op.onDelivered = ep, srcVA, dstVA, size, key, onDelivered
	if tier.Name == "rndv" {
		// Handshake delay; not serialized through any resource, so
		// concurrent mailbox slots overlap their handshakes.
		eng.At(postDone.Add(2*model.PutBaseLat), op.fire)
	} else {
		eng.At(postDone, op.fire)
	}
}

// PutThinFenced is the mailbox send path for fabrics without the
// write-order guarantee (paper Fig. 1): the frame body goes in one put, a
// fence follows, and the 8-byte signal goes in a separate put that cannot
// be delivered ahead of the body. The three steps issue atomically with
// respect to simulated time so the fence covers exactly the body put.
func (ep *Endpoint) PutThinFenced(srcVA, dstVA uint64, bodyLen, sigLen int, key fabric.RKey, onDelivered func(error, sim.Time)) {
	eng := ep.engine()
	tier := model.TierFor(bodyLen)
	swCost := model.AmPackOverhead + 2*model.AmPostOverhead + tier.Overhead +
		2*model.DoorbellLat + model.FenceOverhead
	postDone := ep.Local.CPU.Claim(eng.Now(), swCost)
	if tier.Name == "rndv" {
		// Same handshake the single-put path pays (see PutThin).
		postDone = postDone.Add(2 * model.PutBaseLat)
	}
	eng.At(postDone, func() {
		var bodyErr error
		ep.Local.count(bodyLen)
		ep.Local.NIC.Put(ep.Remote.NIC, srcVA, dstVA, bodyLen, key, func(res fabric.PutResult) {
			bodyErr = res.Err
		})
		ep.Local.NIC.Fence(ep.Remote.NIC)
		ep.Local.count(sigLen)
		ep.Local.NIC.Put(ep.Remote.NIC, srcVA+uint64(bodyLen), dstVA+uint64(bodyLen), sigLen, key,
			func(res fabric.PutResult) {
				if onDelivered != nil {
					err := res.Err
					if err == nil {
						err = bodyErr
					}
					onDelivered(err, res.Delivered)
				}
			})
	})
}
