package core

import (
	"fmt"

	"twochains/internal/mailbox"
)

// Bound is a channel-scoped pre-resolved function handle: the element is
// looked up once, its travelling image is bound against the receiver
// namespace once (via the sender node's shared prepared-jam cache), and
// the receiver-side IDs for Local Function invocation are resolved once.
// Every subsequent send through the handle skips string resolution
// entirely — the bind-once/call-many idiom the paper's design implies.
//
// Handles survive receiver-side RIED hot-swaps: when the channel's
// namespace fingerprint moves (RefreshNames after an InstallRied), the
// next send re-binds through the jam cache, exactly as a fresh string
// lookup would.
//
// Bound is the channel-level invocation surface (resolved by string via
// Channel.Handle) and the engine under the tc.Func public API (which
// holds one handle per destination). Its one send, Send, fills pooled
// frames — injected or Local Function, one per args entry — and hands
// them to the channel's mailbox sender as one batch; completion arrives
// through the sender's own callback, one mailbox.SendInfo per message
// (nil when nobody observes it), so a call allocates nothing of its own.
type Bound struct {
	ch                *Channel
	pkgName, elemName string

	// Injection state: the prepared image and the namespace fingerprint
	// it was bound against. Re-prepared when the channel's fingerprint
	// moves (hot-swap) — the cache makes that a lookup, not a re-bind,
	// unless the namespace is genuinely new.
	pj *preparedJam
	fp uint64

	// Local Function state: the receiver's package and element IDs.
	localPkg, localElem uint8
	localOK             bool

	// burstScratch is the reusable frame-pointer scratch for sends:
	// SendBatch never retains the slice (stalled messages are queued
	// individually), so one per-handle buffer serves every Send.
	burstScratch []*mailbox.Message

	// injectCnt counts single-message injects through this handle for
	// the auto-switch heuristic (MeshConfig.AutoSwitchAfter).
	injectCnt int
}

// Handle returns the cached per-channel handle without forcing a bind:
// error semantics stay lazy and per-path (an inject bind failure does
// not poison Local Function sends through the same handle).
func (ch *Channel) Handle(pkgName, elemName string) *Bound {
	key := [2]string{pkgName, elemName}
	if b, ok := ch.bounds[key]; ok {
		return b
	}
	b := &Bound{ch: ch, pkgName: pkgName, elemName: elemName}
	ch.bounds[key] = b
	return b
}

// Channel returns the channel the handle sends on.
func (b *Bound) Channel() *Channel { return b.ch }

// ensureInject makes the prepared image current for the channel's
// receiver namespace.
func (b *Bound) ensureInject() error {
	if b.pj != nil && b.fp == b.ch.remoteFP {
		return nil
	}
	pj, err := b.ch.prepareJam(b.pkgName, b.elemName)
	if err != nil {
		return err
	}
	b.pj, b.fp = pj, b.ch.remoteFP
	return nil
}

// ensureLocal resolves the receiver-side IDs once.
func (b *Bound) ensureLocal() error {
	if b.localOK {
		return nil
	}
	ch := b.ch
	inst, ok := ch.Dst.Package(b.pkgName)
	if !ok {
		return fmt.Errorf("core: %s->%s: package %s not installed on receiver",
			ch.Src.Name, ch.Dst.Name, b.pkgName)
	}
	elem, ok := inst.Pkg.Element(b.elemName)
	if !ok || elem.Kind != ElemJam {
		return fmt.Errorf("core: %s->%s: no jam %q in package %s",
			ch.Src.Name, ch.Dst.Name, b.elemName, b.pkgName)
	}
	b.localPkg, b.localElem = inst.ID, elem.ID
	b.localOK = true
	return nil
}

// checkUp fails sends on a severed channel fast with the typed error:
// a torn-down receiver, a torn-down sender (a failed process issues
// nothing), or a channel severed by FailNode (dead stays set across the
// node's rejoin — the handle must re-resolve to the rebuilt channel).
func (b *Bound) checkUp() error {
	switch {
	case b.ch.Dst.down || b.ch.dead:
		return &NodeDownError{Src: b.ch.Src.Name, Dst: b.ch.Dst.Name, Node: b.ch.Dst.Name}
	case b.ch.Src.down:
		return &NodeDownError{Src: b.ch.Src.Name, Dst: b.ch.Dst.Name, Node: b.ch.Src.Name}
	}
	return nil
}

// fillInjected writes the wire message for the current prepared image
// into a pooled frame.
func (b *Bound) fillInjected(m *mailbox.Message, args [2]uint64, usr []byte) {
	pj := b.pj
	m.Kind = mailbox.KindInjected
	m.PkgID = pj.pkgID
	m.ElemID = pj.elemID
	m.JamImage = pj.image
	m.GotTableLen = pj.gotLen
	m.TextLen = pj.textLen
	m.EntryOff = pj.entry
	m.Patches = pj.patches
	m.Args = args
	m.Usr = usr
}

// fillLocal writes the Local Function wire message into a pooled frame.
func (b *Bound) fillLocal(m *mailbox.Message, args [2]uint64, usr []byte) {
	m.Kind = mailbox.KindLocal
	m.PkgID = b.localPkg
	m.ElemID = b.localElem
	m.Args = args
	m.Usr = usr
}

// burstMsgs returns the per-handle scratch sized for an n-message batch.
func (b *Bound) burstMsgs(n int) []*mailbox.Message {
	if cap(b.burstScratch) < n {
		b.burstScratch = make([]*mailbox.Message, n)
	}
	return b.burstScratch[:n]
}

// takeAutoSwitch counts one single-message inject through the handle
// and reports whether the auto-switch policy (MeshConfig.AutoSwitchAfter,
// the paper's §VIII future-work optimization) downgrades it to a Local
// Function call: the function has reoccurred often enough and the
// receiver is known to hold the package, so shipping its code again is
// waste. The rule applies to a Send of exactly one injected message, a
// one-message batch included; a Send of several messages never switches
// and is not counted — it is an explicit bulk-injection choice.
func (b *Bound) takeAutoSwitch() bool {
	after := b.ch.autoSwitchAfter
	if after <= 0 {
		return false
	}
	b.injectCnt++
	if b.injectCnt <= after {
		return false
	}
	_, ok := b.ch.Dst.Package(b.pkgName)
	return ok
}

// Send sends one active message per args entry through the handle as a
// single batched operation: the mailbox sender packs them into
// consecutive slots and coalesces contiguous slots into single puts.
// With local false the pre-bound code travels in each frame and executes
// on arrival (Injected Function); with local true only the pre-resolved
// IDs travel and the receiver calls its library copy (Local Function).
// usr is every message's payload; done (when non-nil) fires once per
// message. A send of one injected message may go out as a Local
// Function message instead (takeAutoSwitch); the receiver's
// Delivery.Kind tells which arrived. With no args Send sends nothing.
func (b *Bound) Send(local bool, usr []byte, done func(mailbox.SendInfo), args ...[2]uint64) error {
	if len(args) == 0 {
		return nil
	}
	if err := b.checkUp(); err != nil {
		return err
	}
	if !local && len(args) == 1 && b.takeAutoSwitch() {
		local = true
	}
	var err error
	if local {
		err = b.ensureLocal()
	} else {
		err = b.ensureInject()
	}
	if err != nil {
		return err
	}
	msgs := b.burstMsgs(len(args))
	for i, a := range args {
		m := b.ch.Sender.GetMessage()
		if local {
			b.fillLocal(m, a, usr)
		} else {
			b.fillInjected(m, a, usr)
		}
		msgs[i] = m
	}
	b.ch.Sender.SendBatch(msgs, done)
	return nil
}
