package main

import (
	"fmt"

	"twochains/internal/sim"
	"twochains/internal/tc"
	"twochains/internal/tcapp"
	"twochains/internal/workload"
)

// repOut is what one repetition reports back to the measuring loop.
type repOut struct {
	inj     int    // injections executed
	planned int    // operations the rep planned (attempted)
	failed  int    // handler errors + lost + dropped + issue errors
	digest  uint64 // order-insensitive fold of the handler return values
	simTime sim.Duration
	simRate float64          // simulated injections per simulated second
	res     *workload.Result // nil for steady_call
	// workersDiverged is set by the output check when the Workers=1 run
	// of a parallel shape disagreed with the Workers=2 run.
	workersDiverged bool
}

// runner is one workload after set-up: rep executes one repetition.
// perCall asks for a span around every call the repetition makes into a
// layer, where it makes more than one (steady_call).
type runner interface {
	rep(seed uint64, tr *tracer, perCall bool) (repOut, error)
}

// workloadDef is one named workload. setup performs everything a user
// pays before the first timed repetition (package builds, system
// construction, install, bind, one warm-up repetition) and returns the
// runner the timed section drives. check is the output check of the
// base-seed repetition (oracles, determinism, goldens); it returns the
// operations it verified and how many of them mismatched.
type workloadDef struct {
	name   string
	setups int // set-ups per run; setup_s is their median
	setup  func(c *cfg, tr *tracer) (runner, error)
	check  func(c *cfg) (checked, bad int, base repOut, err error)
}

var workloads = []workloadDef{
	{
		name:   "steady_call",
		setups: 15,
		setup:  setupSteady,
		check:  checkSteady,
	},
	{
		name:   "mesh_churn",
		setups: 15,
		setup:  scenarioSetup(meshChurn),
		check:  scenarioCheck(meshChurn),
	},
	{
		name:   "mesh_scale",
		setups: 3,
		setup:  scenarioSetup(meshScale),
		check:  scenarioCheck(meshScale),
	},
	{
		name:   "serve_open",
		setups: 5,
		setup:  scenarioSetup(serveOpen),
		check:  scenarioCheck(serveOpen),
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// --- scenario workloads (workload.Run per repetition) ---

// meshChurn is the short-scenario shape: 896 injections per run. Under
// -quick every scenario keeps its structure and shrinks its node count
// and rounds, so the tests stay fast under the race detector.
func meshChurn(c *cfg, seed uint64) workload.Scenario {
	sc := workload.DefaultScenario(workload.AllToAll, 8)
	sc.Rounds = 2
	sc.Workers = 1
	sc.Seed = seed
	if c.quick {
		sc.Nodes, sc.Rounds = 4, 1
	}
	return sc
}

// meshScale is the long steady-state shape: 30 720 injections per run.
func meshScale(c *cfg, seed uint64) workload.Scenario {
	sc := workload.DefaultScenario(workload.AllToAll, 16)
	sc.Shards = 4
	sc.Rounds = 16
	sc.Burst = 8
	sc.Workers = 2
	sc.Seed = seed
	if c.quick {
		sc.Nodes, sc.Rounds = 4, 1
	}
	return sc
}

// Bronze admission, calibrated so deferral events land between 0.2x and
// 2x bronze's planned messages (0.75x at the default seed; a bucket a
// quarter this rate defers 10x, which turns the workload into a retry
// benchmark).
const (
	bronzeAdmitRate  = 6_000_000
	bronzeAdmitBurst = 32
)

// serveOpen is the two-tenant open-loop shape, built as data: 10 752
// injections per run.
func serveOpen(c *cfg, seed uint64) workload.Scenario {
	sc := workload.Scenario{
		Pattern:      workload.AllToAll,
		Nodes:        8,
		Shards:       2,
		Workers:      1,
		Burst:        4,
		Rounds:       24,
		PayloadBytes: 32,
		Seed:         seed,
		Timing:       true,
		Tenants: []workload.TenantSpec{
			{
				Name: "gold", Weight: 3,
				Phases: []workload.Phase{{
					Name:       "gold-kv",
					Arrival:    &workload.Arrival{Kind: workload.Poisson, RatePerSec: 240_000},
					Mix:        workload.KVStoreMix(),
					Arg1Random: true,
				}},
			},
			{
				Name: "bronze", Weight: 1, Load: 2,
				Admit: &workload.AdmitSpec{RatePerSec: bronzeAdmitRate, Burst: bronzeAdmitBurst, Defer: true},
				Phases: []workload.Phase{{
					Name: "bronze-bursty",
					Arrival: &workload.Arrival{Kind: workload.MMPP,
						RatePerSec: 120_000, BurstRatePerSec: 1_200_000,
						MeanBase: 40 * sim.Microsecond, MeanBurst: 10 * sim.Microsecond},
					Mix: []workload.ElementMix{
						{Pkg: "tcbench", Elem: "jam_iput", Weight: 3},
						{Pkg: "histo", Elem: "jam_hist_add", Weight: 3},
						{Pkg: "histo", Elem: "jam_hist_sum", Weight: 1},
						{Pkg: "tcbench", Elem: "jam_sssum", Weight: 1, Local: true},
					},
					Arg1Random: true,
				}},
			},
		},
	}
	if c.quick {
		sc.Nodes, sc.Rounds = 4, 1
	}
	return sc
}

// scenarioRunner drives workload.Run once per repetition.
type scenarioRunner struct {
	c     *cfg
	build func(c *cfg, seed uint64) workload.Scenario
}

func (r *scenarioRunner) rep(seed uint64, tr *tracer, _ bool) (repOut, error) {
	return runScenario(r.build(r.c, seed), tr)
}

// runScenario runs one scenario under a workload.run span and folds the
// result into a repOut. Every way a planned message can fail to execute
// counts as failed.
func runScenario(sc workload.Scenario, tr *tracer) (repOut, error) {
	sp := tr.begin(spWorkloadRun)
	res, err := workload.Run(sc)
	tr.end(sp)
	if err != nil {
		return repOut{}, fmt.Errorf("workload.Run: %w", err)
	}
	out := repOut{
		inj:     res.Injections,
		digest:  res.Digest,
		simTime: res.SimTime,
		simRate: res.RatePerSec,
		res:     res,
		failed:  res.Lost + int(res.Mesh.Errors),
	}
	for _, nr := range res.PerNode {
		out.planned += nr.Sent
		out.failed += nr.Errors
	}
	for _, t := range res.Tenants {
		out.failed += t.Dropped + t.Errors
	}
	return out, nil
}

// scenarioSetup is the set-up of a workload.Run workload: the packages
// its mix names are built once (Run builds its own copies, so this only
// proves they build and warms the toolchain) and one warm-up repetition
// runs at the base seed.
func scenarioSetup(build func(c *cfg, seed uint64) workload.Scenario) func(*cfg, *tracer) (runner, error) {
	return func(c *cfg, tr *tracer) (runner, error) {
		sc := build(c, c.seed)
		for _, name := range scenarioPackages(&sc) {
			sp := tr.begin(spTcappBuild)
			_, err := tcapp.Build(name)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
		}
		r := &scenarioRunner{c: c, build: build}
		if _, err := r.rep(c.seed, tr, false); err != nil {
			return nil, err
		}
		return r, nil
	}
}

// scenarioPackages lists the packages a scenario's mixes name, in first
// appearance order.
func scenarioPackages(sc *workload.Scenario) []string {
	var names []string
	seen := map[string]bool{}
	for _, m := range scenarioMix(sc) {
		if !seen[m.Pkg] {
			seen[m.Pkg] = true
			names = append(names, m.Pkg)
		}
	}
	return names
}

// sameResult compares everything two runs of one scenario must agree
// on: digest, simulated time, executed count and per-tenant outcomes.
func sameResult(a, b *workload.Result) bool {
	if a.Digest != b.Digest || a.SimTime != b.SimTime || a.Injections != b.Injections ||
		a.Lost != b.Lost || len(a.Tenants) != len(b.Tenants) {
		return false
	}
	for i := range a.Tenants {
		x, y := a.Tenants[i], b.Tenants[i]
		if x.Planned != y.Planned || x.Serviced != y.Serviced || x.Dropped != y.Dropped ||
			x.Deferred != y.Deferred || x.Errors != y.Errors || x.P99Latency != y.P99Latency ||
			x.LastService != y.LastService {
			return false
		}
	}
	return true
}

// scenarioCheck is the output check of a workload.Run workload on its
// base-seed repetition: a second run in this process is bit-identical
// and the reference interpreter (the independent oracle) agrees with the
// compiled engine. Each comparison verifies every planned message of
// the repetition. A parallel shape is also run at Workers=1; a
// disagreement there is reported (sim.group.w1_w2_diverged) but does not
// fail the run, because at this commit some seeds do diverge: at seed
// 4003 node 3 of mesh_scale folds the same return values in another
// order at Workers=1 (same simulated time, same counts). That is a
// defect of the engine's tie order for the ROADMAP's correctness aim,
// and the benchmark must still measure every seed it is given.
func scenarioCheck(build func(c *cfg, seed uint64) workload.Scenario) func(*cfg) (int, int, repOut, error) {
	return func(c *cfg) (checked, bad int, base repOut, err error) {
		sc := build(c, c.seed)
		base, err = runScenario(sc, nil)
		if err != nil {
			return 0, 0, base, err
		}
		same := func(mutate func(*workload.Scenario)) (bool, error) {
			v := build(c, c.seed)
			mutate(&v)
			got, err := runScenario(v, nil)
			return err == nil && sameResult(base.res, got.res), err
		}
		for _, mutate := range []func(*workload.Scenario){
			func(*workload.Scenario) {}, // a second identical run
			func(s *workload.Scenario) { s.Interpreter = true },
		} {
			ok, err := same(mutate)
			if err != nil {
				return checked, bad, base, err
			}
			checked += base.planned
			if !ok {
				bad += base.planned
			}
		}
		if sc.Workers > 1 {
			ok, err := same(func(s *workload.Scenario) { s.Workers = 1 })
			if err != nil {
				return checked, bad, base, err
			}
			base.workersDiverged = !ok
		}
		return checked, bad, base, nil
	}
}

// --- steady_call ---

const (
	steadyBlock      = 4096 // calls per repetition
	steadyQuickBlock = 64
	steadyIPutBytes  = 64
	steadySumBytes   = 1024
)

// steadyRunner holds the bound handles of the 2-node system; a
// repetition is one block of calls, one in flight at a time.
type steadyRunner struct {
	sys      *tc.System
	iput     *tc.Func
	sssum    *tc.Func
	block    int
	payIPut  tc.CallOpt
	paySum   tc.CallOpt
	bufIPut  []byte
	bufSum   []byte
	execErrs int
	// rets, when non-nil, records node 1's handler return values (the
	// output check replays them against the oracle).
	rets []uint64
	// installedCompiles is the JIT translation count after install,
	// before any delivery.
	installedCompiles uint64
}

// steadyOpts are the system options of the steady_call system; the
// traced run rebuilds it with one more option per ratio metric.
func newSteady(c *cfg, tr *tracer, extra ...tc.SystemOpt) (*steadyRunner, error) {
	sp := tr.begin(spTcappBuild)
	pkg, err := tcapp.Build("tcbench")
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	opts := append([]tc.SystemOpt{tc.WithTiming(true), tc.WithSeed(c.seed)}, extra...)
	sp = tr.begin(spNewSystem)
	sys, err := tc.NewSystem(2, opts...)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(spInstall)
	err = sys.InstallPackage(pkg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	r := &steadyRunner{sys: sys, block: steadyBlock,
		bufIPut: patternBytes(steadyIPutBytes), bufSum: patternBytes(steadySumBytes)}
	if c.quick {
		r.block = steadyQuickBlock
	}
	r.payIPut, r.paySum = tc.Payload(r.bufIPut), tc.Payload(r.bufSum)
	sp = tr.begin(spFuncBind)
	r.iput, err = sys.Func(0, "tcbench", "jam_iput")
	if err == nil {
		r.sssum, err = sys.Func(0, "tcbench", "jam_sssum")
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	r.installedCompiles = readCounts(sys).compiles
	sys.Node(1).OnExecuted = func(ret uint64, _ sim.Duration, err error) {
		if err != nil {
			r.execErrs++
		}
		if r.rets != nil {
			r.rets = append(r.rets, ret)
		}
	}
	return r, nil
}

// patternBytes is the deterministic payload every workload sends.
func patternBytes(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31 + 7)
	}
	return b
}

func setupSteady(c *cfg, tr *tracer) (runner, error) {
	r, err := newSteady(c, tr)
	if err != nil {
		return nil, err
	}
	// The warm-up block binds both handles and fills the jam cache.
	if _, err := r.rep(c.seed, tr, false); err != nil {
		return nil, err
	}
	return r, nil
}

// steadyKey draws call i's Indirect Put key from the repetition's seed.
func steadyKey(rng *sim.RNG) uint64 { return rng.Uint64()%30000 + 1 }

// rep issues one block: jam_iput injected 64 B twice, jam_sssum
// injected 1 KB, jam_sssum as a Local Function 1 KB, in rotation.
func (r *steadyRunner) rep(seed uint64, tr *tracer, perCall bool) (repOut, error) {
	var ct *tracer // nil unless this repetition records every call
	if perCall {
		ct = tr
	}
	rng := sim.NewRNG(seed)
	errs0 := r.execErrs
	t0 := r.sys.Now()
	failed := 0
	for i := 0; i < r.block; i++ {
		var fu *tc.Future
		sp := ct.begin(spCall)
		switch i & 3 {
		case 0, 1:
			fu = r.iput.Call(1, [2]uint64{steadyKey(rng), 0}, r.payIPut)
		case 2:
			fu = r.sssum.Call(1, [2]uint64{}, r.paySum)
		default:
			fu = r.sssum.Call(1, [2]uint64{}, r.paySum, tc.Local())
		}
		// Only a synchronous issue failure may be read here: an armed,
		// unobserved future recycles itself when it resolves in Run.
		if err := fu.IssueErr(); err != nil {
			failed++
		}
		ct.end(sp)
		sp = ct.begin(spDrain)
		r.sys.Run()
		ct.end(sp)
	}
	failed += r.execErrs - errs0
	simTime := sim.Duration(r.sys.Now().Sub(t0))
	out := repOut{inj: r.block - failed, planned: r.block, failed: failed, simTime: simTime}
	if s := simTime.Seconds(); s > 0 {
		out.simRate = float64(out.inj) / s
	}
	return out, nil
}

// checkSteady replays one block on a fresh system and compares node 1's
// handler return values against native models of both elements, then
// repeats the block on a second fresh system for bit-identity. The
// digest and simulated time it reports are those of that fresh block,
// so they are a pure function of the seed.
func checkSteady(c *cfg) (checked, bad int, base repOut, err error) {
	var first []uint64
	for round := 0; round < 2; round++ {
		r, err := newSteady(c, nil)
		if err != nil {
			return checked, bad, base, err
		}
		r.rets = make([]uint64, 0, r.block)
		out, err := r.rep(c.seed, nil, false)
		if err != nil {
			return checked, bad, base, err
		}
		for _, v := range r.rets {
			out.digest = out.digest*1099511628211 + v + 1
		}
		checked += r.block
		if round == 0 {
			base, first = out, r.rets
			bad += steadyOracleMismatches(c.seed, r)
			continue
		}
		if out.digest != base.digest || out.simTime != base.simTime || len(r.rets) != len(first) {
			bad += r.block
		}
	}
	return checked, bad, base, nil
}

// steadyOracleMismatches replays the block's calls through the tcapp
// Server-Side Sum oracle and the Indirect Put model below.
func steadyOracleMismatches(seed uint64, r *steadyRunner) int {
	app, _ := tcapp.Lookup("tcbench")
	sum := app.NewOracle()
	iput := newIPutModel()
	rng := sim.NewRNG(seed)
	if len(r.rets) != r.block {
		return r.block
	}
	bad := 0
	for i, got := range r.rets {
		var want uint64
		switch i & 3 {
		case 0, 1:
			want = iput.apply(steadyKey(rng))
		default:
			want, _ = sum.Apply("jam_sssum", [2]uint64{}, r.bufSum)
		}
		if got != want {
			bad++
		}
	}
	return bad
}

// iputModel is a native model of jam_iput's return value (the tcapp
// oracle covers only Server-Side Sum): the strengthened golden-ratio
// hash, linear probing over 65 536 slots, offset = (slot & 63) << 16.
// It mirrors core.JamIPutSrc and must change with it.
type iputModel struct {
	keys [65536]uint64
	offs [65536]uint64
}

func newIPutModel() *iputModel { return &iputModel{} }

func (m *iputModel) apply(key uint64) uint64 {
	const golden = 0x9E3779B97F4A7C15
	h := (key * golden) >> 16
	for i := uint64(0); i < 26; i++ {
		h *= golden
		h ^= 0x5bd1 + i*7
		h ^= h >> 29
		h += 0x27d + i*3
	}
	slot := h & 65535
	for {
		switch m.keys[slot] {
		case key:
			return m.offs[slot]
		case 0:
			m.keys[slot] = key
			m.offs[slot] = (slot & 63) << 16
			return m.offs[slot]
		}
		slot = (slot + 1) & 65535
	}
}
