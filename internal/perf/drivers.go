package perf

import (
	"fmt"

	"twochains/internal/core"
	"twochains/internal/cpusim"
	"twochains/internal/fabric"
	"twochains/internal/mailbox"
	"twochains/internal/mem"
	"twochains/internal/memsim"
	"twochains/internal/sim"
	"twochains/internal/tc"
)

// WorkloadKind selects the message type a driver sends.
type WorkloadKind int

const (
	WkData     WorkloadKind = iota // without-execution delivery
	WkLocal                        // Local Function invocation
	WkInjected                     // Injected Function invocation
)

// RunConfig parameterizes one benchmark run (one point of one figure).
type RunConfig struct {
	Elem         string // jam name for Local/Injected workloads
	Kind         WorkloadKind
	PayloadBytes int
	Warmup       int
	Iters        int

	NodeCfg  core.NodeConfig
	WaitMode cpusim.WaitMode
	Stress   bool
	Ordered  bool

	// VariableFrames selects the variable-size frame protocol (ablation).
	VariableFrames bool

	// Injection-rate geometry (banks x mailboxes per bank).
	Banks, Slots int

	AutoSwitchAfter int

	// KeyFn provides the Indirect Put key per iteration (nonzero).
	KeyFn func(i int) uint64
}

// DefaultRunConfig fills the paper-testbed defaults.
func DefaultRunConfig() RunConfig {
	return RunConfig{
		Warmup:  50,
		Iters:   400,
		NodeCfg: core.DefaultNodeConfig(),
		Ordered: true,
		Banks:   4,
		Slots:   8,
		KeyFn:   func(i int) uint64 { return uint64(i%30000) + 1 },
	}
}

// RunResult carries a driver's measurements.
type RunResult struct {
	Samples   Samples // per-iteration one-way latency (ping-pong driver)
	Rate      float64 // messages/second (injection-rate driver)
	Bandwidth float64 // payload bytes/second
	CyclesA   float64 // total CPU cycles on the initiator over the run
	CyclesB   float64 // total CPU cycles on the target over the run
	Errors    int
}

// rig is a fully provisioned two-node Two-Chains deployment: a 2-node
// tc.System with both directions connected and a pre-resolved Func handle
// per direction (bind once, send many).
type rig struct {
	sys        *tc.System
	a, b       *core.Node
	ab, ba     *core.Channel
	fnAB, fnBA *tc.Func // nil for WkData runs
	cfg        RunConfig
	payload    []byte
}

// message builds the benchmark message template to size frames.
func benchMessage(cfg RunConfig, pkg *core.Package, payload []byte) (*mailbox.Message, error) {
	switch cfg.Kind {
	case WkData:
		return mailbox.PackData(payload), nil
	case WkLocal:
		return mailbox.PackLocal(1, 1, [2]uint64{}, payload), nil
	case WkInjected:
		elem, ok := pkg.Element(cfg.Elem)
		if !ok || elem.Kind != core.ElemJam {
			return nil, fmt.Errorf("perf: no jam %q", cfg.Elem)
		}
		return &mailbox.Message{
			Kind:     mailbox.KindInjected,
			JamImage: make([]byte, elem.Jam.ShippedSize()),
			Usr:      payload,
		}, nil
	}
	return nil, fmt.Errorf("perf: unknown workload kind %d", cfg.Kind)
}

// buildRig provisions the cluster, packages, mailboxes and channels for a
// run. geometry selects the mailbox shape per direction.
func buildRig(cfg RunConfig, geom mailbox.Geometry, credits bool) (*rig, error) {
	pkg, err := core.BuildBenchPackage()
	if err != nil {
		return nil, err
	}
	payload := make([]byte, cfg.PayloadBytes)
	for i := range payload {
		payload[i] = byte(i*31 + 7)
	}
	tmpl, err := benchMessage(cfg, pkg, payload)
	if err != nil {
		return nil, err
	}
	if geom.FrameSize == 0 {
		geom.FrameSize = tmpl.WireLen()
	}
	if err := geom.Validate(); err != nil {
		return nil, err
	}

	sys, err := tc.NewSystem(2,
		tc.WithNodeConfig(cfg.NodeCfg),
		tc.WithPerNode(func(i int, nc core.NodeConfig) core.NodeConfig {
			if i == 1 {
				nc.Seed ^= 0x5a5a
			}
			return nc
		}),
		tc.WithOrdered(cfg.Ordered),
		tc.WithGeometry(geom),
		tc.WithCredits(credits),
		tc.WithWaitMode(cfg.WaitMode),
		tc.WithConfig(func(c *core.MeshConfig) {
			c.Seed = cfg.NodeCfg.Seed
			c.VariableFrames = cfg.VariableFrames
			c.AutoSwitchAfter = cfg.AutoSwitchAfter
		}),
	)
	if err != nil {
		return nil, err
	}
	if err := sys.InstallPackage(pkg); err != nil {
		return nil, err
	}
	a, b := sys.Node(0), sys.Node(1)
	a.SetStress(cfg.Stress)
	b.SetStress(cfg.Stress)
	ab, err := sys.Channel(0, 1)
	if err != nil {
		return nil, err
	}
	ba, err := sys.Channel(1, 0)
	if err != nil {
		return nil, err
	}
	r := &rig{sys: sys, a: a, b: b, ab: ab, ba: ba, cfg: cfg, payload: payload}
	if cfg.Kind != WkData {
		if r.fnAB, err = sys.Func(0, "tcbench", cfg.Elem); err != nil {
			return nil, err
		}
		if r.fnBA, err = sys.Func(1, "tcbench", cfg.Elem); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// send issues one benchmark message in the given direction through the
// pre-resolved handle. The auto-switch heuristic, when configured, is a
// policy of the handle itself (core.Bound), so the ablation measures the
// same call path with and without it.
func (r *rig) send(fn *tc.Func, ch *core.Channel, dst, i int) error {
	switch r.cfg.Kind {
	case WkData:
		ch.SendData(r.payload, nil)
		return nil
	case WkLocal:
		return fn.Call(dst, [2]uint64{r.cfg.KeyFn(i), 0}, tc.Local(), tc.Payload(r.payload)).IssueErr()
	default:
		return fn.Call(dst, [2]uint64{r.cfg.KeyFn(i), 0}, tc.Payload(r.payload)).IssueErr()
	}
}

// PingPong runs the latency shape of §VI-A1: one message at a time bounces
// between the hosts, executing on each arrival; the sample is the half
// round-trip time.
func PingPong(cfg RunConfig) (*RunResult, error) {
	geom := mailbox.Geometry{Banks: 1, Slots: 1}
	r, err := buildRig(cfg, geom, false)
	if err != nil {
		return nil, err
	}
	defer r.sys.Close()
	res := &RunResult{}

	total := cfg.Warmup + cfg.Iters
	iter := 0
	var t0 sim.Time
	countErr := func(d *mailbox.Delivery, err error) { res.Errors++ }
	// Each direction lands in its own mailbox region: a->b in ab.Recv
	// (on b), b->a in ba.Recv (on a).
	r.ab.Recv.OnError = countErr
	r.ba.Recv.OnError = countErr

	var ping func()
	ping = func() {
		t0 = r.sys.Now()
		if err := r.send(r.fnAB, r.ab, 1, iter); err != nil {
			res.Errors++
		}
	}
	r.ab.Recv.OnProcessed = func(d *mailbox.Delivery, _ sim.Time) {
		if err := r.send(r.fnBA, r.ba, 0, iter); err != nil {
			res.Errors++
		}
	}
	r.ba.Recv.OnProcessed = func(d *mailbox.Delivery, _ sim.Time) {
		rtt := r.sys.Now().Sub(t0)
		if iter >= cfg.Warmup {
			res.Samples.Add(rtt / 2)
		}
		iter++
		if iter < total {
			ping()
		}
	}
	r.sys.Engine().After(0, ping)
	r.sys.Run()

	res.CyclesA = r.a.Counter.Total()
	res.CyclesB = r.b.Counter.Total()
	if res.Samples.N() < cfg.Iters {
		return res, fmt.Errorf("perf: ping-pong collected %d/%d samples (errors %d)",
			res.Samples.N(), cfg.Iters, res.Errors)
	}
	return res, nil
}

// InjectionRate runs the rate shape of §VI-A2: the sender streams messages
// as fast as bank credits allow; the receiver drains banks and returns
// flags. The reported rate covers the post-warmup window.
func InjectionRate(cfg RunConfig) (*RunResult, error) {
	geom := mailbox.Geometry{Banks: cfg.Banks, Slots: cfg.Slots}
	r, err := buildRig(cfg, geom, true)
	if err != nil {
		return nil, err
	}
	defer r.sys.Close()
	res := &RunResult{}

	total := cfg.Warmup + cfg.Iters
	processed := 0
	var tStart, tEnd sim.Time
	r.ab.Recv.OnError = func(d *mailbox.Delivery, err error) { res.Errors++ }
	r.ab.Recv.OnProcessed = func(d *mailbox.Delivery, _ sim.Time) {
		processed++
		if processed == cfg.Warmup {
			tStart = r.sys.Now()
		}
		if processed == total {
			tEnd = r.sys.Now()
		}
	}
	for i := 0; i < total; i++ {
		if err := r.send(r.fnAB, r.ab, 1, i); err != nil {
			return nil, err
		}
	}
	r.sys.Run()

	if processed < total {
		return res, fmt.Errorf("perf: injection rate processed %d/%d (errors %d)",
			processed, total, res.Errors)
	}
	window := tEnd.Sub(tStart).Seconds()
	if window <= 0 {
		return res, fmt.Errorf("perf: degenerate measurement window")
	}
	res.Rate = float64(cfg.Iters) / window
	res.Bandwidth = res.Rate * float64(cfg.PayloadBytes)
	res.CyclesA = r.a.Counter.Total()
	res.CyclesB = r.b.Counter.Total()
	return res, nil
}

// ucxPair is the no-mailbox baseline deployment for Fig. 5/6.
type ucxPair struct {
	sys    *tc.System
	a, b   *core.Node
	ab, ba interface {
		Put(uint64, uint64, int, fabric.RKey, func(error, sim.Time))
	}
	aBuf uint64
	bBuf uint64
	aKey fabric.RKey
	bKey fabric.RKey
}

func buildUcxPair(cfg RunConfig, size int) (*ucxPair, error) {
	sys, err := tc.NewSystem(2,
		tc.WithNodeConfig(cfg.NodeCfg),
		tc.WithOrdered(cfg.Ordered),
		tc.WithConfig(func(c *core.MeshConfig) { c.Seed = cfg.NodeCfg.Seed }),
	)
	if err != nil {
		return nil, err
	}
	a, b := sys.Node(0), sys.Node(1)
	p := &ucxPair{sys: sys, a: a, b: b}
	alloc := func(n *core.Node) (uint64, fabric.RKey, error) {
		va, err := n.AS.AllocPages("putbuf", size+64, mem.PermRW)
		if err != nil {
			return 0, 0, err
		}
		key, err := n.Worker.RegisterMemory(va, size+64, fabric.RemoteWrite)
		return va, key, err
	}
	if p.aBuf, p.aKey, err = alloc(a); err != nil {
		return nil, err
	}
	if p.bBuf, p.bKey, err = alloc(b); err != nil {
		return nil, err
	}
	p.ab = a.Worker.Connect(b.Worker)
	p.ba = b.Worker.Connect(a.Worker)
	a.SetStress(cfg.Stress)
	b.SetStress(cfg.Stress)
	return p, nil
}

// UcxPutLatency measures the plain RDMA put ping-pong: each side polls its
// receive buffer and answers with a put — the Fig. 5 baseline.
func UcxPutLatency(cfg RunConfig, size int) (*RunResult, error) {
	p, err := buildUcxPair(cfg, size)
	if err != nil {
		return nil, err
	}
	defer p.sys.Close()
	res := &RunResult{}
	total := cfg.Warmup + cfg.Iters
	iter := 0
	var t0 sim.Time

	var ping func()
	ping = func() {
		t0 = p.sys.Now()
		p.ab.Put(p.aBuf, p.bBuf, size, p.bKey, nil)
	}
	// Receiver-side detection: poll granularity after delivery, plus the
	// read of the landed signal line through the cache hierarchy (same
	// treatment the mailbox receiver gets).
	detect := func(n *core.Node, va uint64) sim.Duration {
		d := pollDetect()
		if n.Hier != nil {
			d += n.Hier.Access(va, 8, memsim.Read)
		}
		return d
	}
	p.b.Worker.NIC.AddDeliveryHookRange(p.bBuf, size+64, func(va uint64, n int) {
		p.sys.Engine().After(detect(p.b, va), func() {
			p.ba.Put(p.bBuf, p.aBuf, size, p.aKey, nil)
		})
	})
	p.a.Worker.NIC.AddDeliveryHookRange(p.aBuf, size+64, func(va uint64, n int) {
		p.sys.Engine().After(detect(p.a, va), func() {
			rtt := p.sys.Now().Sub(t0)
			if iter >= cfg.Warmup {
				res.Samples.Add(rtt / 2)
			}
			iter++
			if iter < total {
				ping()
			}
		})
	})
	p.sys.Engine().After(0, ping)
	p.sys.Run()
	if res.Samples.N() < cfg.Iters {
		return res, fmt.Errorf("perf: ucx put latency collected %d/%d", res.Samples.N(), cfg.Iters)
	}
	return res, nil
}

// UcxPutBandwidth measures the standard put path's streaming bandwidth
// with per-operation completion tracking — the Fig. 6 baseline.
func UcxPutBandwidth(cfg RunConfig, size int) (*RunResult, error) {
	p, err := buildUcxPair(cfg, size)
	if err != nil {
		return nil, err
	}
	defer p.sys.Close()
	res := &RunResult{}
	total := cfg.Warmup + cfg.Iters
	var tStart, tEnd sim.Time
	i := 0
	var issue func()
	issue = func() {
		if i == cfg.Warmup {
			tStart = p.sys.Now()
		}
		if i == total {
			tEnd = p.sys.Now()
			return
		}
		i++
		p.ab.Put(p.aBuf, p.bBuf, size, p.bKey, func(err error, _ sim.Time) {
			if err != nil {
				res.Errors++
			}
			issue()
		})
	}
	issue()
	p.sys.Run()
	window := tEnd.Sub(tStart).Seconds()
	if window <= 0 {
		return res, fmt.Errorf("perf: degenerate put bandwidth window")
	}
	res.Rate = float64(cfg.Iters) / window
	res.Bandwidth = res.Rate * float64(size)
	return res, nil
}

// AmPutBandwidth streams without-execution frames through the mailbox path
// (the Fig. 6 measurement side).
func AmPutBandwidth(cfg RunConfig) (*RunResult, error) {
	cfg.Kind = WkData
	return InjectionRate(cfg)
}
