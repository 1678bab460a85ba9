// Package model is the single home of every calibration constant used by the
// timing simulation. The values are derived from the testbed described in
// §VI-C of the Two-Chains paper: two 4-core 2.6 GHz Arm servers (1 MB L2 per
// core, 1 MB L3 per 2-core cluster, 8 MB LLC, 16 GB DDR4-2666) connected
// back-to-back with ConnectX-6 200 Gb/s HCAs in PCIe Gen4 slots.
//
// Experiments must take constants from here and never hard-code latencies:
// the ablation and calibration tests rely on being able to perturb a single
// parameter and observe the effect.
//
// What the model lacks: DRAM has one idle latency and no bandwidth or
// open-row model, the stride prefetcher keeps no depth of lines in
// flight, and bank-flag flow-control credits cost the sender no CPU.
package model

import "twochains/internal/sim"

// CPU core parameters (paper §VI-C: 2.6 GHz superscalar core).
const (
	// CoreHz is the core clock.
	CoreHz = 2.6e9
	// CyclePs is one core cycle in picoseconds (≈384.6 ps at 2.6 GHz).
	CyclePs = 1e12 / CoreHz
)

// Cycles converts a cycle count to a simulated duration.
//
// The explicit float64 rounds the product before the add, so no
// architecture fuses the two into one multiply-add (Arm64's FMADDD) and
// every architecture computes the same duration.
func Cycles(n float64) sim.Duration { return sim.Duration(float64(n*CyclePs) + 0.5) }

// DurToCycles converts a duration to core cycles.
func DurToCycles(d sim.Duration) float64 { return float64(d) / CyclePs }

// Cache geometry (paper §VI-C).
const (
	LineSize = 64 // bytes per cache line

	L2Size  = 1 << 20 // 1 MB dedicated per core
	L2Ways  = 8
	L3Size  = 1 << 20 // 1 MB shared per 2-core cluster
	L3Ways  = 8
	LLCSize = 8 << 20 // 8 MB shared last-level cache
	LLCWays = 16
)

// Cache and DRAM access latencies (load-to-use, typical for this class of
// part; DDR4-2666 idle latency ≈ 90 ns).
var (
	L2HitLat   = Cycles(13)        // ≈ 5 ns
	L3HitLat   = Cycles(32)        // ≈ 12.3 ns
	LLCHitLat  = Cycles(55)        // ≈ 21.2 ns
	DRAMLat    = sim.FromNanos(90) // idle DRAM read
	PrefillLat = sim.FromNanos(10) // line already in flight via prefetch
	MLPStream  = sim.FromNanos(28) // effective per-line DRAM cost when
	// misses overlap (no prefetch yet)
)

// Prefetcher model: a stride prefetcher that trains on sequential line
// misses and, once confident, hides most of the DRAM latency.
const (
	PrefetchTrainMisses = 3 // sequential misses before the stream is hot
	PrefetchStreams     = 8 // tracked streams
)

// Network parameters (ConnectX-6 200 Gb/s back-to-back over PCIe Gen4).
var (
	// WireBytesPerSec is the usable unidirectional link bandwidth. 200 Gb/s
	// signalling less encoding/transport overhead ≈ 24 GB/s usable.
	WireBytesPerSec = 24.0e9
	// PutBaseLat is the one-way latency floor for a small RDMA write:
	// sender PCIe + HCA processing + wire + receiver HCA + PCIe/IOCU.
	PutBaseLat = sim.FromNanos(780)
	// DoorbellLat is sender CPU cost to ring the NIC doorbell (MMIO write).
	DoorbellLat = sim.FromNanos(90)
	// NicPerMsg is NIC per-message processing occupancy (WQE fetch, DMA
	// setup); this bounds small-message rate at ~1/NicPerMsg.
	NicPerMsg = sim.FromNanos(48)
	// PCIeHdrBytes approximates per-TLP overhead folded into wire time.
	PCIeHdrBytes = 24
	// UplinkHopLat is the extra one-way latency of crossing the spine
	// switch between two fabric shards (store-and-forward + arbitration).
	UplinkHopLat = sim.FromNanos(260)
)

// WireTime returns the serialization time of n payload bytes on the link.
func WireTime(n int) sim.Duration {
	return sim.FromNanos(float64(n+PCIeHdrBytes) / WireBytesPerSec * 1e9)
}

// UCX-layer software costs. The plain put path (the Fig. 5/6 baseline) pays
// library flow control and completion tracking that the reactive-mailbox
// path avoids (paper §VII: "the standard UCX put operation has more library
// overhead for flow control and detecting message completion").
var (
	UcxPostOverhead = sim.FromNanos(70)  // build + post a WQE through ucp
	UcxCompOverhead = sim.FromNanos(110) // poll CQ + completion callback
	UcxFlowOverhead = sim.FromNanos(160) // window accounting + credit msgs
	AmPackOverhead  = sim.FromNanos(38)  // mailbox frame pack (header+sig)
	AmPostOverhead  = sim.FromNanos(35)  // post: frame is preformatted
	FenceOverhead   = sim.FromNanos(28)  // explicit wire fence (no-order fabrics)
)

// Protocol tiers (paper §VII-A: UCX switches protocols by message size, and
// a message "just over the threshold" pays the next tier's fixed overhead
// before it is amortized). Sizes are total frame bytes on the wire.
type ProtoTier struct {
	MaxSize  int          // inclusive upper bound of the tier
	Overhead sim.Duration // fixed per-message software overhead
	Name     string
}

// ProtoTiers is ordered by size. Thresholds are placed so that the Injected
// Function frames for Indirect Put cross tiers at 8- and 256-integer
// payloads, reproducing the Fig. 7 irregularities.
var ProtoTiers = []ProtoTier{
	{MaxSize: 192, Overhead: 0, Name: "short"},
	{MaxSize: 1535, Overhead: sim.FromNanos(52), Name: "eager"},
	{MaxSize: 2495, Overhead: sim.FromNanos(135), Name: "bcopy"},
	{MaxSize: 8191, Overhead: sim.FromNanos(230), Name: "zcopy"},
	{MaxSize: 1 << 30, Overhead: sim.FromNanos(420), Name: "rndv"},
}

// TierFor returns the protocol tier for a frame of the given size.
func TierFor(size int) ProtoTier {
	for _, t := range ProtoTiers {
		if size <= t.MaxSize {
			return t
		}
	}
	return ProtoTiers[len(ProtoTiers)-1]
}

// Mailbox / polling parameters.
var (
	// PollDetectLat is the coherence delay between the NIC writing the
	// signal line and the polling core observing it.
	PollDetectLat = sim.FromNanos(24)
	// WfeWakeLat is the extra latency of waking from WFE versus an
	// already-spinning poll (event signal propagation + pipeline restart).
	WfeWakeLat = sim.FromNanos(19)
	// WfeWaitCycles is the cycle cost charged per WFE wait episode
	// (arm the monitor, sleep gated, wake, recheck) regardless of how long
	// the wait lasts — the clock is gated while waiting.
	WfeWaitCycles = 58.0
	// WfeSpuriousWakeMean is the mean number of spurious wakeups per
	// microsecond of wait (events on the monitored line from other traffic).
	WfeSpuriousWakeMean = 0.05
)

// VM / executor per-operation costs, in cycles. The JAM ISA is simple and
// in-order; memory operand costs come from the memsim hierarchy on top of
// these base costs.
var (
	VMCyclesPerInstr   = 1.35 // average non-memory issue cost
	GOTPatchPerEntry   = sim.FromNanos(4.5)
	FrameParseOverhead = sim.FromNanos(14)
	HandlerDispatchLat = sim.FromNanos(10)
	// TenantIsolationCost is the per-invocation boundary crossing charged
	// when an untrusted tenant's function runs at the receiver. The value
	// follows the lightweight-virtualization literature (Virtines report
	// ~2.2 µs to enter/exit a minimal hardware-virtualized execution
	// context once the image is warm); heavier sandboxes can be modelled
	// by raising it, trusting a tenant by leaving Config.Untrusted unset.
	TenantIsolationCost = sim.FromNanos(2200)
)

// Stress model (paper §VII-C: `stress-ng --class vm --all 1` on all cores).
// The stressor contends for DRAM bandwidth and pollutes the LLC. Parameters
// produce the paper's qualitative behaviour: the non-stash path shows an
// erratic tail, the stash path a narrow one.
var (
	// StressDRAMQueueMeanNs: mean extra queueing delay per DRAM access.
	StressDRAMQueueMeanNs = 85.0
	// StressDRAMQueueSigma: lognormal sigma of the queue delay.
	StressDRAMQueueSigma = 1.1
	// StressSpikeProb: probability a DRAM access hits an interference
	// episode (page migration, kswapd burst).
	StressSpikeProb = 0.0028
	// StressSpikeXmNs / StressSpikeAlpha: Pareto spike, capped.
	StressSpikeXmNs  = 2200.0
	StressSpikeAlpha = 1.25
	StressSpikeCapNs = 220000.0
	// StressLLCEvictProb: probability a stashed line was evicted by the
	// stressor before the handler reads it.
	StressLLCEvictProb = 0.02
	// StressLLCExtraNs: interconnect contention added to LLC hits under load.
	StressLLCExtraNs = 7.0
)

// DefaultSeed seeds all experiment RNG streams unless overridden.
const DefaultSeed = 0x7c2c2021 // "Two-Chains CLUSTER 2021"
