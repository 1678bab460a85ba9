package core

import "twochains/internal/mailbox"

// Channel is one node's view of sending active messages to a peer. It owns
// the mailbox sender and the namespace mirror from the exchange step;
// prepared jam images live in the sender node's shared cache, so channels
// to identical receiver namespaces bind each element once between them.
type Channel struct {
	Src, Dst *Node
	// Recv is the destination mailbox region this channel writes into.
	Recv   *mailbox.Receiver
	Sender *mailbox.Sender
	// autoSwitchAfter is the mesh's MeshConfig.AutoSwitchAfter.
	autoSwitchAfter int

	// remoteNames is the snapshot of the receiver's namespace obtained in
	// the out-of-band exchange; the sender binds travelling GOT entries
	// from it (paper §III-B: "set by the sender after an exchange with
	// the receiver"). remoteFP is its fingerprint, the jam-cache key.
	remoteNames map[string]uint64
	remoteFP    uint64

	// bounds caches this channel's pre-resolved handles, one per element
	// (see Bound). Keys are (pkg, elem) pairs, not built strings, so a
	// cache hit performs no allocation.
	bounds map[[2]string]*Bound

	// dead marks a channel severed by Mesh.FailNode: unlike Dst.down it
	// never clears — a rejoined node gets fresh channels (and fresh
	// mailbox regions), so handle caches holding this one must re-resolve.
	dead bool
}

// Dead reports whether the channel was severed by a node failure. A dead
// channel stays dead across the node's rejoin; callers caching Bound
// handles check it to know when to re-resolve through the mesh.
func (ch *Channel) Dead() bool { return ch.dead }

// preparedJam is a jam with its extern GOT entries bound to receiver VAs.
type preparedJam struct {
	image   []byte
	gotLen  int
	textLen int
	entry   uint32
	patches []mailbox.GotPatch
	pkgID   uint8
	elemID  uint8
}

// connectTo opens a channel from src into one mailbox region on dst. A
// region admits one remote writer, so every channel gets its own
// (Node.AddMailbox). The namespace exchange (names, fp) is computed by the
// caller, once per receiver namespace, and shared read-only; the
// connection wires the credit return path when credits are on.
func connectTo(src, dst *Node, recv *mailbox.Receiver, scfg mailbox.SenderConfig, autoSwitchAfter int, names map[string]uint64, fp uint64) (*Channel, error) {
	ep := src.Worker.Connect(dst.Worker)
	snd, err := mailbox.NewSender(src.Worker, ep, scfg, recv.BaseVA, recv.Key, src.Counter)
	if err != nil {
		return nil, err
	}
	if scfg.Credits {
		recv.SetCreditReturn(dst.Worker.Connect(src.Worker), snd.CreditVA, snd.CreditKey)
	}
	return &Channel{
		Src:             src,
		Dst:             dst,
		Recv:            recv,
		Sender:          snd,
		autoSwitchAfter: autoSwitchAfter,
		remoteNames:     names,
		remoteFP:        fp,
		bounds:          map[[2]string]*Bound{},
	}, nil
}

// prepareJam returns the element's image bound against the remote
// namespace, via the sender node's shared cache.
func (ch *Channel) prepareJam(pkgName, elemName string) (*preparedJam, error) {
	return ch.Src.jams.prepare(ch.Src, pkgName, elemName, ch.Dst.Name, ch.remoteNames, ch.remoteFP)
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// SendData sends a delivery-only frame (the without-execution mode used by
// the Fig. 5/6 overhead experiments).
func (ch *Channel) SendData(usr []byte, done func(mailbox.SendInfo)) {
	ch.Sender.Send(mailbox.PackData(usr), done)
}
