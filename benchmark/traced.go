package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"twochains/internal/tc"
	"twochains/internal/workload"
)

const (
	// steadyTracedBlocks is the traced run's repetition count for
	// steady_call; the first steadyPerCallBlocks of them record a span
	// around every Func.Call and every sys.Run.
	steadyTracedBlocks  = 64
	steadyPerCallBlocks = 8
	tracerCapacity      = 1 << 17
)

// variant is one mechanism switched off (or on) for a ratio metric:
// the workload's median repetition time under the variant divided by
// its default. A ratio near 1 says the mechanism is worth nothing on
// this workload.
type variant struct {
	metric string
	opt    func(workers int) tc.SystemOpt                  // steady_call
	mutate func(s *workload.Scenario, workers int)         // workload.Run workloads
	ratio  func(variant, def float64, workers int) float64 // nil: variant/def
	share  float64                                         // of -seconds
}

// otherWorkers flips between the sequential and the 2-worker engine.
func otherWorkers(w int) int {
	if w > 1 {
		return 1
	}
	return 2
}

var variants = []variant{
	{
		metric: "vm.interp_over_jit", share: 0.1,
		opt:    func(int) tc.SystemOpt { return tc.WithInterpreter() },
		mutate: func(s *workload.Scenario, _ int) { s.Interpreter = true },
	},
	{
		metric: "memsim.timing_ratio", share: 0.1,
		opt:    func(int) tc.SystemOpt { return tc.WithTiming(false) },
		mutate: func(s *workload.Scenario, _ int) { s.Timing = false },
	},
	{
		metric: "simnet.ideal_ratio", share: 0.1,
		opt:    func(int) tc.SystemOpt { return tc.WithBackend("ideal") },
		mutate: func(s *workload.Scenario, _ int) { s.Backend = "ideal" },
	},
	{
		// Time at Workers=1 over time at Workers=2, whichever of the two
		// is the workload's default: above 1 the parallel engine pays.
		metric: "sim.group.w1_over_w2", share: 0.2,
		opt:    func(w int) tc.SystemOpt { return tc.WithWorkers(otherWorkers(w)) },
		mutate: func(s *workload.Scenario, w int) { s.Workers = otherWorkers(w) },
		ratio: func(v, def float64, w int) float64 {
			if w > 1 {
				return v / def
			}
			return def / v
		},
	},
}

// exactMetrics repeat exactly for one seed: counts and simulated-clock
// values, pure functions of the inputs. A difference between two
// commits means the model changed.
var exactMetrics = []string{
	"sim_inj_per_sec", "sim_us", "failed_frac",
	"sim.events_per_inj", "sim.windows", "sim.group.w1_w2_diverged",
	"mailbox.credit_stalls_per_kinj", "mailbox.batched_frac", "mailbox.frames_per_batch",
	"core.jam_bind_frac", "vm.compiles_per_delivery", "vm.deopts",
	"memsim.stash_frac", "memsim.dram_line_frac",
	"tenant.deferred_per_kinj", "tenant.gold_share", "tenant.sim_p99_us.gold", "tenant.sim_p99_us.bronze",
}

// runTraced is the traced run of one workload: set-up and repetitions
// under spans, the same repetitions again untraced (the difference is
// the tracing overhead), one timed section per variant, the replica
// for the counters workload.Run hides, and the probes. It reports every
// per-layer metric; a metric that has no meaning on this workload
// (tenant.* without tenants, workload.* on steady_call) reads 0.
func runTraced(c *cfg, def *workloadDef, w io.Writer, d detail) (detail, error) {
	tr := newTracer(tracerCapacity)
	m := map[string]metric{}
	share := func(s float64) time.Duration { return time.Duration(s * c.seconds * float64(time.Second)) }

	sp := tr.begin(spSetup)
	r, err := def.setup(c, tr)
	tr.end(sp)
	if err != nil {
		return d, fmt.Errorf("set-up: %w", err)
	}
	setupSpans := len(tr.spans)
	checked, bad, base, err := outputCheck(c, def, &d)
	if err != nil {
		return d, err
	}

	sr, steady := r.(*steadyRunner)
	fixed, perCall := 0, 0
	if steady {
		fixed, perCall = steadyTracedBlocks, steadyPerCallBlocks
	}
	if c.quick {
		fixed, perCall = 2, 1
	}
	tTr, err := measure(c, r, tr, share(0.15), fixed, perCall)
	if err != nil {
		return d, err
	}
	repSpans := len(tr.spans)
	tUn, err := measure(c, r, nil, 0, tTr.reps, 0)
	if err != nil {
		return d, err
	}
	fillSpread(&d, &tUn)
	addRunInfo(m, &tUn, base)
	m["runtime.heap_live_mb_max"] = metric{float64(tTr.heapLive) / (1 << 20), "MB"}
	// Overhead compares each repetition that recorded every span it can
	// with the same repetition untraced: the median of the pairs' ratios.
	k := tTr.reps
	if steady && perCall < k {
		k = perCall
	}
	ratios := make([]float64, k)
	for i := range ratios {
		ratios[i] = ratioOf(tTr.usPerInj[i], tUn.usPerInj[i])
	}
	m["trace.overhead_frac"] = metric{median(ratios) - 1, "ratio"}
	defP50 := tUn.p50()

	// Variants: same repetition seeds, one mechanism changed.
	workers := 1
	var sc *workload.Scenario
	if !steady {
		s := r.(*scenarioRunner).build(c, c.seed)
		sc = &s
		if sc.Workers > 1 {
			workers = sc.Workers
		}
	}
	failed := tTr.failed + tUn.failed
	planned := tTr.planned + tUn.planned
	for _, v := range variants {
		var vr runner
		if steady {
			s, err := newSteady(c, nil, v.opt(workers))
			if err != nil {
				return d, fmt.Errorf("%s: %w", v.metric, err)
			}
			if _, err := s.rep(c.seed, nil, false); err != nil {
				return d, err
			}
			vr = s
		} else {
			mutate, build := v.mutate, r.(*scenarioRunner).build
			vr = &scenarioRunner{c: c, build: func(c *cfg, seed uint64) workload.Scenario {
				s := build(c, seed)
				mutate(&s, workers)
				return s
			}}
		}
		fixedV := 0
		if c.quick {
			fixedV = 1
		}
		t, err := measure(c, vr, nil, share(v.share), fixedV, 0)
		if err != nil {
			return d, fmt.Errorf("%s: %w", v.metric, err)
		}
		failed += t.failed
		planned += t.planned
		ratio := t.p50() / defP50
		if v.ratio != nil {
			ratio = v.ratio(t.p50(), defP50, workers)
		}
		m[v.metric] = metric{ratio, "ratio"}
	}

	// Counters and stage times: steady_call reads its own system; the
	// others need the replica.
	var st stageNs
	var k0 counts
	sh := probeShape{frame: 2048, payload: steadyIPutBytes, pkg: "tcbench", elem: "jam_iput", sc: sc}
	if steady {
		k0 = readCounts(sr.sys)
		k0.compiles -= sr.installedCompiles
		k0.delivered = k0.mesh.Processed
		k0.inj = int(k0.delivered)
		st.newSystem, _ = tr.sumNs(spNewSystem, 0, setupSpans)
		st.install, _ = tr.sumNs(spInstall, 0, setupSpans)
		st.bind, st.binds = tr.sumNs(spFuncBind, 0, setupSpans)
		st.binds *= 2 // one span covers both handles
		var calls int
		st.issue, calls = tr.sumNs(spCall, setupSpans, repSpans)
		st.drain, _ = tr.sumNs(spDrain, setupSpans, repSpans)
		m["tc.issue_us_per_inj"] = metric{st.issue / 1e3 / float64(calls), "us"}
		m["tc.drain_us_per_inj"] = metric{st.drain / 1e3 / float64(calls), "us"}
		m["workload.run_ms_p50"] = metric{0, "ms"}
		m["workload.self_ms"] = metric{0, "ms"}
		m["sim.windows"] = metric{0, "count"}
	} else {
		// The first replica only warms the process, as the repetitions
		// it is compared with were warm.
		var frame int
		if !c.quick {
			_, _, _, err = replica(sc, nil)
		}
		if err == nil {
			st, k0, frame, err = replica(sc, tr)
		}
		if err != nil {
			return d, fmt.Errorf("replica: %w", err)
		}
		mix := scenarioMix(sc)
		sh.frame, sh.payload = frame, sc.PayloadBytes
		for _, e := range mix {
			if !e.Local {
				sh.pkg, sh.elem = e.Pkg, e.Elem
				break
			}
		}
		m["tc.issue_us_per_inj"] = metric{st.issue / 1e3 / float64(k0.inj), "us"}
		m["tc.drain_us_per_inj"] = metric{st.drain / 1e3 / float64(k0.inj), "us"}
		runMs := median(tUn.repMs)
		m["workload.run_ms_p50"] = metric{runMs, "ms"}
		m["workload.self_ms"] = metric{runMs - st.total()/1e6, "ms"}
		m["sim.windows"] = metric{float64(base.res.Windows), "count"}
		// The sender and jam-cache counters are the real run's own; the
		// replica's deliveries stay the base of compiles_per_delivery.
		k0.mesh = base.res.Mesh
	}
	if err := runProbes(c, sh, tr, m); err != nil {
		return d, fmt.Errorf("probes: %w", err)
	}
	if st.channels > 0 {
		m["core.channel_create_us"] = metric{st.channel / 1e3 / float64(st.channels), "us"}
	}
	nodes := 2
	if sc != nil {
		nodes = sc.Nodes
	}
	layerCounts(m, &k0, &st, nodes, base)

	m["trace.unattributed_frac"] = metric{tr.unattributed(), "ratio"}
	m["failed_frac"] = metric{float64(failed+bad) / float64(planned+checked), "ratio"}
	d.Result = result{Correct: bad == 0 && failed == 0, Attempted: planned + checked, Failed: failed + bad, Metrics: m}

	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return d, err
	}
	path := filepath.Join(c.outDir, "trace-"+def.name+".json")
	if err := tr.writeChrome(path); err != nil {
		return d, err
	}
	d.tracer = tr
	printRun(w, &d)
	fmt.Fprintf(w, "   trace: %d spans -> %s\n", len(tr.spans), path)
	tr.printFold(w)
	return d, nil
}

// layerCounts turns the counters into the count-type per-layer metrics.
func layerCounts(m map[string]metric, k *counts, st *stageNs, nodes int, base repOut) {
	inj := float64(k.inj)
	m["sim.events_per_inj"] = metric{ratioOf(float64(k.steps), inj), "count"}
	ms := k.mesh
	m["mailbox.credit_stalls_per_kinj"] = metric{1000 * ratioOf(float64(ms.CreditStalls), float64(ms.Sent)), "count"}
	m["mailbox.batched_frac"] = metric{ratioOf(float64(ms.BatchedFrames), float64(ms.Sent)), "ratio"}
	m["mailbox.frames_per_batch"] = metric{ratioOf(float64(ms.BatchedFrames), float64(ms.Batches)), "count"}
	m["core.jam_bind_frac"] = metric{ratioOf(float64(ms.JamBinds), float64(ms.JamBinds+ms.JamHits)), "ratio"}
	m["vm.compiles_per_delivery"] = metric{ratioOf(float64(k.compiles), float64(k.delivered)), "count"}
	m["vm.deopts"] = metric{float64(k.deopts), "count"}
	h := k.hier
	m["memsim.stash_frac"] = metric{ratioOf(float64(h.NetStashed), float64(h.NetStashed+h.NetToDRAM)), "ratio"}
	m["memsim.dram_line_frac"] = metric{ratioOf(float64(h.LinesDRAM), float64(h.LinesL2+h.LinesL3+h.LinesLLC+h.LinesDRAM)), "ratio"}
	m["core.install_ms_per_node"] = metric{ratioOf(st.install/1e6, float64(nodes)), "ms"}
	m["tc.new_system_ms"] = metric{st.newSystem / 1e6, "ms"}
	m["tc.func_bind_us"] = metric{ratioOf(st.bind/1e3, float64(st.binds)), "us"}

	var deferred, goodput, gold float64
	p99 := map[string]float64{}
	if base.res != nil {
		for _, t := range base.res.Tenants {
			deferred += float64(t.Deferred)
			goodput += t.GoodputPerSec
			p99[t.Name] = t.P99Latency.Microseconds()
			if t.Name == "gold" {
				gold = t.GoodputPerSec
			}
		}
	}
	m["tenant.deferred_per_kinj"] = metric{1000 * ratioOf(deferred, float64(base.inj)), "count"}
	m["tenant.gold_share"] = metric{ratioOf(gold, goodput), "ratio"}
	m["tenant.sim_p99_us.gold"] = metric{p99["gold"], "sim-us"}
	m["tenant.sim_p99_us.bronze"] = metric{p99["bronze"], "sim-us"}
}
