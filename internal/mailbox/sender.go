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
	// Private freelists for the steady-state send path: a completion
	// goes back when its put delivers, a stall record when its message
	// drains or fails.
	compFree  []*completion
	stallFree []*stalledSend
	stalled   []*stalledSend
	// drainBuf is the spare stall queue drain ping-pongs with, so retrying
	// stalled sends reuses two stable buffers instead of reallocating.
	drainBuf []*stalledSend
	stallAt  sim.Time

	// Sent counts packed frames and CreditStalls the sends that waited
	// for a bank's credit. Batches counts thin puts that carried more than
	// one frame; BatchedFrames counts the frames they carried.
	Sent          uint64
	CreditStalls  uint64
	Batches       uint64
	BatchedFrames uint64
}

// stalledSend is a message waiting for a bank's credit: the sender's
// own copy, so the caller's message and batch slice are free the moment
// Send or SendBatch returns.
type stalledSend struct {
	msg  Message
	done func(SendInfo)
}

// completion is the thin put of one run, carrying the frames
// [seq0, seq0+n). Its prebound OnDelivered recycles it, then fans the
// put's one callback out into one SendInfo per frame, so neither single
// sends nor batched runs allocate per message.
type completion struct {
	ucx.ThinPut
	owner *Sender
	seq0  uint32
	n     int
	done  func(SendInfo)
}

// getCompletion takes a record from the sender's freelist, or makes one.
func (s *Sender) getCompletion(seq0 uint32, n int, done func(SendInfo)) *completion {
	var c *completion
	if k := len(s.compFree); k > 0 {
		c = s.compFree[k-1]
		s.compFree = s.compFree[:k-1]
	} else {
		c = &completion{owner: s}
		c.OnDelivered = c.delivered
	}
	c.seq0, c.n, c.done = seq0, n, done
	return c
}

func (c *completion) delivered(res fabric.PutResult) {
	seq0, n, done := c.seq0, c.n, c.done
	c.done = nil
	c.owner.compFree = append(c.owner.compFree, c)
	if done == nil {
		return
	}
	for i := 0; i < n; i++ {
		done(SendInfo{Seq: seq0 + uint32(i), Err: res.Err, Delivered: res.Delivered})
	}
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
// (and its signal) has been delivered remotely. msg is read as SendBatch
// reads its messages and is not retained.
func (s *Sender) Send(msg *Message, done func(SendInfo)) {
	var r run
	if len(s.stalled) > 0 || !s.pack(&r, msg, done) {
		s.stall(msg, done)
	}
	s.flush(&r, done)
}

// SendBatch transmits a run of messages — every send goes through it or
// through Send, its one-message form. Frames are packed into consecutive
// mailbox slots and every contiguous run of slots ships as one put, so a
// burst pays the per-put software cost (post, doorbell, protocol tier)
// once per run instead of once per frame. Runs break at the mailbox
// region wrap and at credit stalls; messages past a stall, or submitted
// while earlier ones are still stalled, are copied into the sender's
// stall queue in order and go out one frame per put when the receiver
// returns the bank flag. On fabrics without the write-order guarantee
// every frame is its own run: the separate-signal protocol fences
// between a body and its signal, which one coalesced put cannot express.
// done (when non-nil) fires once per message.
//
// SendBatch keeps neither msgs nor any element of it: the caller may
// overwrite and reuse the slice once the call returns. Each message's
// JamImage, Patches and Usr bytes are read when it is packed — during
// the call, or when its credit returns for a stalled one.
func (s *Sender) SendBatch(msgs []Message, done func(SendInfo)) {
	var r run
	for i := range msgs {
		if len(s.stalled) > 0 || !s.pack(&r, &msgs[i], done) {
			s.stall(&msgs[i], done)
		}
	}
	s.flush(&r, done)
}

// pack packs msg into the next staging slot and adds it to the run r,
// flushing r first where the region wraps. A failed send reports its
// error through done and counts as taken. It reports false, with r
// flushed and nothing packed, when the slot's bank has no credit: the
// caller stalls msg.
func (s *Sender) pack(r *run, msg *Message, done func(SendInfo)) bool {
	g := s.Cfg.Geometry
	seq := s.seq
	bank, slot, off := g.SlotFor(seq)

	if s.Cfg.Credits && slot == 0 {
		flagVA := s.CreditVA + uint64(bank*8)
		flag, err := s.Worker.AS.ReadU64(flagVA)
		if err != nil {
			s.fail(done, SendInfo{Seq: seq, Err: err})
			return true
		}
		if flag == 0 {
			// Bank still owned by the receiver: ship what we have and
			// stall until the credit returns. Waiting costs cycles like
			// any signal wait.
			s.flush(r, done)
			s.stallAt = s.eng.Now()
			s.CreditStalls++
			return false
		}
		// Claim the bank.
		if err := s.Worker.AS.WriteU64(flagVA, 0); err != nil {
			s.fail(done, SendInfo{Seq: seq, Err: err})
			return true
		}
	}
	if r.bytes > 0 && off != r.start+uint64(r.bytes) {
		// Region wrapped: the next slot is not contiguous in memory.
		s.flush(r, done)
	}
	if r.bytes == 0 {
		// The run's frames occupy consecutive slots, so their sequence
		// numbers are consecutive too and one counted completion record
		// fans the run's single fabric callback out per message.
		r.start, r.seq0 = off, seq
	}
	s.seq++

	buf, err := s.Worker.AS.View(s.staging+off, g.FrameSize)
	if err != nil {
		s.fail(done, SendInfo{Seq: seq, Err: err})
		return true
	}
	if err := s.packStaging(msg, buf, bank*g.Slots+slot, seq, s.RemoteBase+off); err != nil {
		s.fail(done, SendInfo{Seq: seq, Err: err})
		return true
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
	r.bytes += g.FrameSize
	if s.Cfg.SeparateSignal {
		s.flush(r, done)
	}
	return true
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
	c := s.getCompletion(r.seq0, frames, done)
	c.SrcVA, c.DstVA, c.Size, c.Key = s.staging+r.start, s.RemoteBase+r.start, r.bytes, s.RemoteKey
	r.bytes = 0
	if s.Cfg.SeparateSignal {
		c.Size -= SigSize
		s.Ep.PutThinFenced(&c.ThinPut, SigSize)
		return
	}
	if frames > 1 {
		s.Batches++
		s.BatchedFrames += uint64(frames)
	}
	s.Ep.PutThin(&c.ThinPut)
}

// stall copies msg into a stall record from the sender's freelist and
// queues it behind any earlier stalled sends.
func (s *Sender) stall(msg *Message, done func(SendInfo)) {
	var q *stalledSend
	if k := len(s.stallFree); k > 0 {
		q = s.stallFree[k-1]
		s.stallFree = s.stallFree[:k-1]
	} else {
		q = new(stalledSend)
	}
	q.msg, q.done = *msg, done
	s.stalled = append(s.stalled, q)
}

// unstall returns the stall records of pending to the freelist, each
// cleared so it pins no payload, and keeps pending's buffer as the next
// drain's queue.
func (s *Sender) unstall(pending []*stalledSend) {
	for i, q := range pending {
		*q = stalledSend{}
		s.stallFree = append(s.stallFree, q)
		pending[i] = nil
	}
	s.drainBuf = pending[:0]
}

// fail reports a send that was never packed.
func (s *Sender) fail(done func(SendInfo), info SendInfo) {
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
		var r run
		if !s.pack(&r, &q.msg, q.done) {
			// The send re-stalled on the next bank boundary; it and the
			// remainder stay queued in order.
			s.stalled = append(s.stalled, pending[i:]...)
			pending = pending[:i]
			break
		}
		s.flush(&r, q.done)
	}
	s.unstall(pending)
}

// FailPending fails every stalled (queued) send with err: each done
// callback fires synchronously with the error and each stall record
// returns to the sender's freelist. It is the teardown path for a
// channel whose receiver will never return the credits that would drain
// the queue — without it the queued messages (and any futures observing
// them) stay stranded. Returns the number of sends failed.
func (s *Sender) FailPending(err error) int {
	n := len(s.stalled)
	if n == 0 {
		return 0
	}
	pending := s.stalled
	s.stalled = s.drainBuf[:0]
	s.drainBuf = nil
	for _, q := range pending {
		s.fail(q.done, SendInfo{Err: err})
	}
	s.unstall(pending)
	return n
}

// PackLocal is a convenience constructing a Local Function message.
func PackLocal(pkgID, elemID uint8, args [2]uint64, usr []byte) *Message {
	return &Message{Kind: KindLocal, PkgID: pkgID, ElemID: elemID, Args: args, Usr: usr}
}
