package mailbox

import (
	"twochains/internal/cpusim"
	"twochains/internal/fabric"
	"twochains/internal/mem"
	"twochains/internal/model"
	"twochains/internal/sim"
	"twochains/internal/ucx"
)

// SenderConfig selects the send-side protocol.
type SenderConfig struct {
	Geometry Geometry
	// Credits enables the bank-flag flow control (paper §VI-A2): one flag
	// per remote bank, reset when the sender starts filling the bank, set
	// by the receiver when it drains the bank.
	Credits bool
	// WaitMode governs cycle accounting while waiting for credits.
	WaitMode cpusim.WaitMode
	// SeparateSignal sends the frame body and the 8-byte signal trailer
	// as two puts with a fence between them — required on fabrics without
	// the write-order guarantee (paper Fig. 1).
	SeparateSignal bool
}

// SendInfo reports completion of one message.
type SendInfo struct {
	Seq       uint32
	Err       error
	Delivered sim.Time // receiver-side arrival of the signal
}

// Sender streams frames into a remote mailbox region.
type Sender struct {
	Cfg     SenderConfig
	Worker  *ucx.Worker
	Ep      *ucx.Endpoint
	Counter *cpusim.Counter

	RemoteBase uint64
	RemoteKey  fabric.RKey

	// Credit flag array (one u64 per bank) in the sender's memory,
	// remotely writable by the receiver.
	CreditVA  uint64
	CreditKey fabric.RKey

	eng     *sim.Engine
	staging uint64
	seq     uint32
	// Per-staging-slot pack cache: the jam image last packed into each
	// slot (by backing-array identity — prepared images are written once
	// and the held reference pins them, so identity implies identical
	// bytes) and the bytes that pack dirtied. Steady-state re-sends of
	// the same bound jam then skip the image copy and the tail clear.
	slotJam     [][]byte
	slotWritten []int
	// Private freelists for the steady-state send path: a message is
	// released at pack time, a completion when it fires.
	msgFree  []*Message
	compFree []*completion
	stalled  []queuedSend
	// drainBuf is the spare stall queue drain ping-pongs with, so retrying
	// stalled sends reuses two stable buffers instead of reallocating.
	drainBuf []queuedSend
	stallAt  sim.Time

	// Sent counts packed frames and CreditStalls the sends that waited
	// for a bank's credit. Batches counts thin puts that carried more than
	// one frame; BatchedFrames counts the frames they carried.
	Sent          uint64
	CreditStalls  uint64
	Batches       uint64
	BatchedFrames uint64
}

type queuedSend struct {
	msg  *Message
	done func(SendInfo)
}

// completion is the counted completion record for one thin put carrying
// the frames [seq0, seq0+n): when the put delivers, it fans the single
// fabric callback out into one SendInfo per frame. Records are pooled and
// carry a prebound callback, so neither single sends nor batched runs
// allocate per message.
type completion struct {
	owner *Sender
	seq0  uint32
	n     int
	done  func(SendInfo)
	cb    func(error, sim.Time) // prebound fire method, reused across recycles
}

// getCompletion returns nil when done is nil — the fabric accepts a nil
// callback, and a no-observer put needs no completion record at all.
// Records live on the sender's freelist.
func (s *Sender) getCompletion(seq0 uint32, n int, done func(SendInfo)) *completion {
	if done == nil {
		return nil
	}
	var c *completion
	if k := len(s.compFree); k > 0 {
		c = s.compFree[k-1]
		s.compFree = s.compFree[:k-1]
	} else {
		c = &completion{owner: s}
		c.cb = c.fire
	}
	c.seq0, c.n, c.done = seq0, n, done
	return c
}

func (c *completion) fire(err error, t sim.Time) {
	seq0, n, done := c.seq0, c.n, c.done
	c.done = nil
	c.owner.compFree = append(c.owner.compFree, c)
	for i := 0; i < n; i++ {
		done(SendInfo{Seq: seq0 + uint32(i), Err: err, Delivered: t})
	}
}

// putCB returns the fabric-level callback for a completion, nil included.
func (c *completion) putCB() func(error, sim.Time) {
	if c == nil {
		return nil
	}
	return c.cb
}

// NewSender builds a sender on w targeting the remote mailbox region
// (base, key) through ep. The remote region must use the same geometry.
func NewSender(w *ucx.Worker, ep *ucx.Endpoint, cfg SenderConfig, remoteBase uint64, remoteKey fabric.RKey, counter *cpusim.Counter) (*Sender, error) {
	if err := cfg.Geometry.Validate(); err != nil {
		return nil, err
	}
	staging, err := w.AS.AllocPages("mailbox-staging", cfg.Geometry.RegionSize(), mem.PermRW)
	if err != nil {
		return nil, err
	}
	s := &Sender{
		Cfg:         cfg,
		Worker:      w,
		Ep:          ep,
		Counter:     counter,
		RemoteBase:  remoteBase,
		RemoteKey:   remoteKey,
		eng:         w.Eng,
		staging:     staging,
		seq:         1,
		slotJam:     make([][]byte, cfg.Geometry.Total()),
		slotWritten: make([]int, cfg.Geometry.Total()),
	}
	for i := range s.slotWritten {
		s.slotWritten[i] = cfg.Geometry.FrameSize
	}
	if cfg.Credits {
		va, err := w.AS.Alloc("mailbox-credits", cfg.Geometry.Banks*8, 8, mem.PermRW)
		if err != nil {
			return nil, err
		}
		s.CreditVA = va
		if s.CreditKey, err = w.RegisterMemory(va, cfg.Geometry.Banks*8, fabric.RemoteWrite); err != nil {
			return nil, err
		}
		// All banks start available.
		for b := 0; b < cfg.Geometry.Banks; b++ {
			if err := w.AS.WriteU64(va+uint64(b*8), 1); err != nil {
				return nil, err
			}
		}
		// Resume stalled sends when the receiver returns a credit.
		w.NIC.AddDeliveryHookRange(va, cfg.Geometry.Banks*8,
			func(dva uint64, size int) { s.drain() })
	}
	return s, nil
}

// GetMessage returns a zeroed Message from the sender's private
// freelist, falling back to a fresh allocation. Ownership transfers
// back at Send/SendBatch, which releases the message after packing; the
// caller must not retain it past that call.
func (s *Sender) GetMessage() *Message {
	if n := len(s.msgFree); n > 0 {
		m := s.msgFree[n-1]
		s.msgFree[n-1] = nil
		s.msgFree = s.msgFree[:n-1]
		return m
	}
	return &Message{owner: s}
}

// packStaging packs msg into the staging slot buf (slot index idx),
// skipping work the slot's previous occupant already did: an identical
// jam image is already in place, and bytes past the previous pack's
// high-water mark are already zero. Cache state only advances when the
// pack succeeds.
func (s *Sender) packStaging(msg *Message, buf []byte, idx int, seq uint32, dstVA uint64) error {
	frameSize := s.Cfg.Geometry.FrameSize
	written := HeaderSize + ArgsSize + len(msg.Usr)
	haveJam := false
	var jam []byte
	if msg.Kind == KindInjected {
		written += PreSize + len(msg.JamImage)
		jam = msg.JamImage
		prev := s.slotJam[idx]
		haveJam = len(jam) > 0 && len(prev) == len(jam) && &prev[0] == &jam[0]
	}
	clearTo := s.slotWritten[idx]
	if err := msg.packInto(buf, frameSize, seq, dstVA, clearTo, haveJam); err != nil {
		return err
	}
	s.slotWritten[idx] = written
	s.slotJam[idx] = jam
	return nil
}

// Send packs and transmits msg to the next mailbox slot: a one-frame
// SendBatch. If the target bank's credit is not available the send queues
// until the receiver returns the bank flag. done fires when the frame
// (and its signal) has been delivered remotely.
func (s *Sender) Send(msg *Message, done func(SendInfo)) {
	one := [1]*Message{msg}
	s.SendBatch(one[:], done)
}

// SendBatch transmits a run of messages — every send goes through it,
// Send as a run of one. Frames are packed into consecutive mailbox slots
// and every contiguous run of slots ships as one put, so a burst pays the
// per-put software cost (post, doorbell, protocol tier) once per run
// instead of once per frame. Runs break at the mailbox region wrap and at
// credit stalls; messages past a stall, or submitted while earlier ones
// are still stalled, queue in order and go out one frame per put when the
// receiver returns the bank flag. On fabrics without the write-order
// guarantee every frame is its own run: the separate-signal protocol
// fences between a body and its signal, which one coalesced put cannot
// express. done (when non-nil) fires once per message. msgs is not
// retained.
func (s *Sender) SendBatch(msgs []*Message, done func(SendInfo)) {
	if len(s.stalled) > 0 {
		s.queue(msgs, done)
		return
	}
	g := s.Cfg.Geometry
	// The contiguous run's frames occupy consecutive slots, so their
	// sequence numbers are consecutive too and one counted completion
	// record fans the run's single fabric callback out per message.
	var r run
	for i, msg := range msgs {
		seq := s.seq
		bank, slot, off := g.SlotFor(seq)

		if s.Cfg.Credits && slot == 0 {
			flagVA := s.CreditVA + uint64(bank*8)
			flag, err := s.Worker.AS.ReadU64(flagVA)
			if err != nil {
				s.finish(msg, done, SendInfo{Seq: seq, Err: err})
				continue
			}
			if flag == 0 {
				// Bank still owned by the receiver: ship what we have and
				// stall until the credit returns. Waiting costs cycles like
				// any signal wait. Queued messages stay out of the pool
				// until they are finally packed or fail.
				s.flush(&r, done)
				s.stallAt = s.eng.Now()
				s.CreditStalls++
				s.queue(msgs[i:], done)
				return
			}
			// Claim the bank.
			if err := s.Worker.AS.WriteU64(flagVA, 0); err != nil {
				s.finish(msg, done, SendInfo{Seq: seq, Err: err})
				continue
			}
		}
		if r.bytes > 0 && off != r.start+uint64(r.bytes) {
			// Region wrapped: the next slot is not contiguous in memory.
			s.flush(&r, done)
		}
		if r.bytes == 0 {
			r.start, r.seq0 = off, seq
		}
		s.seq++

		buf, err := s.Worker.AS.View(s.staging+off, g.FrameSize)
		if err != nil {
			s.finish(msg, done, SendInfo{Seq: seq, Err: err})
			continue
		}
		if err := s.packStaging(msg, buf, bank*g.Slots+slot, seq, s.RemoteBase+off); err != nil {
			s.finish(msg, done, SendInfo{Seq: seq, Err: err})
			continue
		}
		s.Sent++
		// GOT patching cost: one entry per travelling slot plus the pointer.
		if msg.Kind == KindInjected {
			entries := msg.GotTableLen/8 + 1
			patch := sim.Duration(entries) * model.GOTPatchPerEntry
			s.Worker.CPU.Claim(s.eng.Now(), patch)
			if s.Counter != nil {
				s.Counter.Work(patch)
			}
		}
		// The frame bytes now live in staging: a pooled message is done.
		msg.release()
		r.bytes += g.FrameSize
		if s.Cfg.SeparateSignal {
			s.flush(&r, done)
		}
	}
	s.flush(&r, done)
}

// run is the contiguous stretch of packed staging slots SendBatch has
// not put yet: its staging offset, length and first frame's seq.
type run struct {
	start uint64
	bytes int
	seq0  uint32
}

// flush puts the packed run, if any, and empties it. In separate-signal
// mode the run is one frame: body first (without trailer), fence, then
// the signal put — the protocol for fabrics with no write-order
// guarantee. Otherwise the whole run goes in one put.
func (s *Sender) flush(r *run, done func(SendInfo)) {
	if r.bytes == 0 {
		return
	}
	frames := r.bytes / s.Cfg.Geometry.FrameSize
	src, dst, n := s.staging+r.start, s.RemoteBase+r.start, r.bytes
	r.bytes = 0
	cb := s.getCompletion(r.seq0, frames, done).putCB()
	if s.Cfg.SeparateSignal {
		s.Ep.PutThinFenced(src, dst, n-SigSize, SigSize, s.RemoteKey, cb)
		return
	}
	if frames > 1 {
		s.Batches++
		s.BatchedFrames += uint64(frames)
	}
	s.Ep.PutThin(src, dst, n, s.RemoteKey, cb)
}

// queue appends msgs to the stall queue in order.
func (s *Sender) queue(msgs []*Message, done func(SendInfo)) {
	for _, m := range msgs {
		s.stalled = append(s.stalled, queuedSend{m, done})
	}
}

// finish reports a failed (never-packed) send and releases a pooled
// message back to the pool.
func (s *Sender) finish(msg *Message, done func(SendInfo), info SendInfo) {
	if msg != nil {
		msg.release()
	}
	if done != nil {
		done(info)
	}
}

// drain retries stalled sends after a credit arrives. Stalled messages
// must go out in their original FIFO order: the queue is detached before
// retrying, and when a retry re-stalls (the run crossed into another
// still-unavailable bank) the remainder re-queues behind it untouched.
// The detached buffer is kept as the next drain's queue, so steady
// stall/drain cycles ping-pong between two stable allocations.
func (s *Sender) drain() {
	if len(s.stalled) == 0 {
		return
	}
	if s.Counter != nil {
		s.Counter.Wait(s.Cfg.WaitMode, s.eng.Now().Sub(s.stallAt))
	}
	pending := s.stalled
	s.stalled = s.drainBuf[:0]
	s.drainBuf = nil
	for i, q := range pending {
		// One frame per put: each queued message carries its own done.
		s.Send(q.msg, q.done)
		if len(s.stalled) > 0 {
			// The send re-stalled on the next bank boundary; keep the
			// remainder queued in order behind it.
			s.stalled = append(s.stalled, pending[i+1:]...)
			break
		}
	}
	for i := range pending {
		pending[i] = queuedSend{}
	}
	s.drainBuf = pending[:0]
}

// FailPending fails every stalled (queued) send with err: each pooled
// frame returns to the pool and each done callback fires synchronously
// with the error. It is the teardown path for a channel whose receiver
// will never return the credits that would drain the queue — without it
// the queued messages (and any futures observing them) stay stranded
// and the pooled frames leak. Returns the number of sends failed.
func (s *Sender) FailPending(err error) int {
	n := len(s.stalled)
	if n == 0 {
		return 0
	}
	pending := s.stalled
	s.stalled = s.drainBuf[:0]
	s.drainBuf = nil
	for _, q := range pending {
		s.finish(q.msg, q.done, SendInfo{Err: err})
	}
	for i := range pending {
		pending[i] = queuedSend{}
	}
	s.drainBuf = pending[:0]
	return n
}

// PackLocal is a convenience constructing a Local Function message.
func PackLocal(pkgID, elemID uint8, args [2]uint64, usr []byte) *Message {
	return &Message{Kind: KindLocal, PkgID: pkgID, ElemID: elemID, Args: args, Usr: usr}
}

// PackData constructs a delivery-only message (without-execution mode).
func PackData(usr []byte) *Message {
	return &Message{Kind: KindData, Usr: usr}
}
