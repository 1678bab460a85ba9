package core

import (
	"fmt"
	"sort"
)

// NodeDownError is the typed error that every send, bind, or channel
// creation addressed across a failed node resolves with — issue loops
// (and the tc retry machinery) switch on it instead of parsing message
// strings. It is returned by handle sends to a torn-down or severed
// channel, by Mesh.ChannelView when an endpoint is down, and delivered
// through SendInfo callbacks when FailNode fails queued sends.
// FailNode on a node that is already down returns one with Src, Dst and
// Node all naming that node.
type NodeDownError struct {
	// Src and Dst name the channel endpoints of the refused operation.
	Src, Dst string
	// Node names the endpoint that is down (equal to Src or Dst).
	Node string
}

func (e *NodeDownError) Error() string {
	if e.Src == e.Dst {
		return fmt.Sprintf("core: node %s is already down", e.Node)
	}
	side := "destination"
	if e.Node == e.Src {
		side = "source"
	}
	return fmt.Sprintf("core: %s->%s: %s node torn down", e.Src, e.Dst, side)
}

// FailNode takes node i out of service as a hard failure boundary
// (Virtines-style: in-flight state addressed at the node is lost, not
// silently replayed):
//
//   - The node is torn down (mailbox regions stop being serviced; a
//     service or completion already scheduled is quashed when it fires).
//   - Every channel into or out of the node is severed: marked dead,
//     removed from the mesh (a later ChannelView rebuilds from scratch),
//     and its queued (credit-stalled) sends fail fast with a typed
//     *NodeDownError so pooled frames return to the pool and observing
//     futures resolve instead of stranding.
//   - Peers' prepared-jam caches drop every image bound against the
//     failed node's namespace fingerprints, and the mesh's memoized
//     namespace exchanges for the node are invalidated — the
//     translation-cache-invalidation discipline: a rejoined node's
//     bindings are re-exchanged, never assumed.
//
// The bookkeeping walks channels in deterministic (src, dst, view)
// order, so runs that fail nodes at fixed simulated times stay a pure
// function of the scenario.
//
// It returns the number of queued outbound messages (src == i) that
// were failed, per namespace view ("" = base; a view with none is
// absent): those were issued by the node but will never arrive
// anywhere, which loss accounting needs separately from the inbound
// backlog it can compute as issued-minus-serviced. Failing a node that
// is already down is a *NodeDownError naming it on both sides.
func (m *Mesh) FailNode(i int) (map[string]int, error) {
	if i < 0 || i >= len(m.nodes) {
		return nil, fmt.Errorf("core: mesh node %d out of range (%d nodes)", i, len(m.nodes))
	}
	n := m.nodes[i]
	if n.down {
		return nil, &NodeDownError{Src: n.Name, Dst: n.Name, Node: n.Name}
	}
	n.Teardown()

	var keys []chanKey
	for k := range m.chans {
		if k.src == i || k.dst == i {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(a, b int) bool {
		ka, kb := keys[a], keys[b]
		if ka.src != kb.src {
			return ka.src < kb.src
		}
		if ka.dst != kb.dst {
			return ka.dst < kb.dst
		}
		return ka.view < kb.view
	})
	severed := make([]*Channel, len(keys))
	for j, k := range keys {
		severed[j] = m.chans[k]
		severed[j].dead = true
		delete(m.chans, k)
	}
	for k := range m.nsMemo {
		if k.dst == i {
			delete(m.nsMemo, k)
		}
	}

	outboundFailed := map[string]int{}
	for j, ch := range severed {
		if ch.Dst == n {
			// Peer's cache may hold images bound against the failed node's
			// namespace; identical twins on other nodes simply re-bind.
			ch.Src.jams.invalidate(ch.remoteFP)
		}
		err := &NodeDownError{Src: ch.Src.Name, Dst: ch.Dst.Name, Node: n.Name}
		if failed := ch.Sender.FailPending(err); failed > 0 && ch.Src == n {
			outboundFailed[keys[j].view] += failed
		}
	}
	return outboundFailed, nil
}

// RejoinNode brings a previously failed node back into service. The
// node's memory and installed packages were never wiped (a torn-down
// process, not a dead machine), but nothing severed is resurrected:
// old channels stay dead and their stopped mailbox regions stay
// stopped. Peers re-create channels lazily through ChannelView — fresh
// regions, a fresh namespace exchange, fresh handle binds.
func (m *Mesh) RejoinNode(i int) error {
	if i < 0 || i >= len(m.nodes) {
		return fmt.Errorf("core: mesh node %d out of range (%d nodes)", i, len(m.nodes))
	}
	n := m.nodes[i]
	if !n.down {
		return fmt.Errorf("core: mesh: node %s is not down", n.Name)
	}
	n.down = false
	return nil
}
