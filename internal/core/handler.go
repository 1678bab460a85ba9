package core

import (
	"fmt"

	"twochains/internal/mailbox"
	"twochains/internal/memsim"
	"twochains/internal/model"
	"twochains/internal/sim"
)

// AddMailbox arms an independently sequenced mailbox region on this node
// and returns its receiver; inbound active messages dispatch through the
// node's VM. A mailbox region admits a single remote writer (slot
// sequencing is per-sender), so every inbound channel gets its own region.
func (n *Node) AddMailbox(cfg mailbox.ReceiverConfig) (*mailbox.Receiver, error) {
	recv, err := mailbox.NewReceiver(n.Worker, cfg, n.Counter, n.dispatch)
	if err != nil {
		return nil, err
	}
	n.Receivers = append(n.Receivers, recv)
	recv.Start()
	return recv, nil
}

// Teardown takes the node out of service: every armed mailbox region
// stops being polled and subsequent sends addressed to this node fail
// fast with an error instead of landing in a dead region. The node's
// memory and installed packages stay intact (a torn-down process, not a
// wiped machine); frames already in flight still land but are not
// serviced.
func (n *Node) Teardown() {
	n.down = true
	for _, r := range n.Receivers {
		r.Stop()
	}
}

// Down reports whether the node has been torn down.
func (n *Node) Down() bool { return n.down }

// dispatch executes one delivered active message. It implements both
// invocation methods of §IV-B: Injected Function (run the code that
// arrived in the frame) and Local Function (call the library function
// selected by package and element ID).
func (n *Node) dispatch(d *mailbox.Delivery) (sim.Duration, error) {
	switch d.Kind {
	case mailbox.KindInjected:
		return n.runInjected(d)
	case mailbox.KindLocal:
		return n.runLocal(d)
	}
	return 0, nil
}

// runInjected maps the jam body that travelled in the frame and calls its
// entry point. The jam's external references resolve through the
// travelling GOT via the pointer at codeBase-8 — no lookup, no
// registration, exactly the arrival path of paper Fig. 2.
func (n *Node) runInjected(d *mailbox.Delivery) (sim.Duration, error) {
	codeVA, entryVA := d.CodeVA, d.EntryVA
	var extra sim.Duration

	if n.Cfg.SecureExec {
		// Security mode: the mailbox page is not executable; copy
		// [gp slot][body] into the execution area so the gp-before-code
		// convention still holds, and pay for the copy.
		span := 8 + d.BodyLen
		raw, err := n.AS.ReadBytesDMA(d.GpSlotVA, span)
		if err != nil {
			return 0, err
		}
		if err := n.AS.WriteBytesDMA(n.execArea, raw); err != nil {
			return 0, err
		}
		if n.Hier != nil {
			extra += n.Hier.Access(d.GpSlotVA, span, memsim.Read)
			extra += n.Hier.Access(n.execArea, span, memsim.Write)
		}
		extra += model.Cycles(float64(span) * 0.12)
		delta := d.EntryVA - d.CodeVA
		codeVA = n.execArea + 8
		entryVA = codeVA + delta
	}

	code, err := n.AS.ViewDMA(codeVA, d.TextLen)
	if err != nil {
		return extra, err
	}
	// The VM keeps the body mapped per frame slot: repeated deliveries of
	// the same element re-execute the cached region after a byte compare.
	region, err := n.VM.EnsureJam(codeVA, code)
	if err != nil {
		return extra, fmt.Errorf("core: node %s: bad injected code: %w", n.Name, err)
	}

	ret, cost, err := n.VM.CallRegion(region, entryVA, d.ArgsVA, d.UsrVA, uint64(d.UsrLen))
	if n.OnExecuted != nil {
		n.OnExecuted(ret, extra+cost, err)
	}
	return extra + cost, err
}

// runLocal invokes the function from the package's Local Function library
// selected by the frame's package and element IDs (paper Fig. 3: "a vector
// of function pointers that are called by using the ID included in the
// active message header").
func (n *Node) runLocal(d *mailbox.Delivery) (sim.Duration, error) {
	inst := n.packageByID(d.PkgID)
	if inst == nil {
		return 0, fmt.Errorf("core: node %s: no installed package with ID %d", n.Name, d.PkgID)
	}
	entry, ok := inst.localVec[d.ElemID]
	if !ok {
		return 0, fmt.Errorf("core: node %s: package %s has no element %d",
			n.Name, inst.Pkg.Name, d.ElemID)
	}
	ret, cost, err := n.VM.Call(entry, d.ArgsVA, d.UsrVA, uint64(d.UsrLen))
	if n.OnExecuted != nil {
		n.OnExecuted(ret, cost, err)
	}
	return cost, err
}

func (n *Node) packageByID(id uint8) *InstalledPackage {
	for _, inst := range n.pkgs {
		if inst.ID == id {
			return inst
		}
	}
	return nil
}
