// Package workload is the composable scenario driver: it provisions a
// sharded many-node tc.System, generates a deterministic traffic plan,
// drives batched frame injection through pre-resolved tc.Func handles
// (one handle per sender and element, bound once per destination), and
// reports simulated injections/sec plus a run digest.
//
// # The Traffic/Phase model
//
// A Scenario is data all the way down. Its traffic shape — a
// deterministic plan generator over the node count — is selected by
// name from a fixed table of the three paper patterns (fanout,
// alltoall, hotspot). Golden tests pin their digests and simulated
// times per seed.
//
// A scenario runs as a sequence of Phases, each with its own traffic,
// element mix, arrival process, and optional RIED swap (a RIED — a
// relocatable interface distribution — is the shared library a process
// loads to set up interfaces and data objects; swapping one mid-run is
// the paper's remote-linking dynamic update). Phase k+1 opens when
// every message phase k planned has executed, so warmup -> swap ->
// drain pipelines are scenario data rather than bespoke driver code. A
// phaseless scenario is one closed-loop phase of Scenario.Pattern — the
// legacy surface, unchanged.
//
// Mix entries name a package and an element (Pkg + Elem), resolved
// through tcapp's fixed table of apps: a phase can mix tcbench Indirect Puts
// with kvstore puts and histo reduces, and the driver installs every
// referenced package and sizes mailbox frames for the largest message.
//
// # Arrivals
//
// Closed-loop (default): each sender self-clocks — burst k+1 is issued
// from the completion of burst k, so the fabric runs loaded but
// bounded. Open-loop (Phase.Arrival = &Arrival{Kind: Poisson,
// RatePerSec: r}): each sender's bursts arrive at exponential
// interarrival gaps drawn at plan time, independent of completions —
// the offered-load shape, where queueing (credit stalls) is part of the
// measurement.
//
// All randomness — element choice, argument words, hotspot target and
// skew, arrival gaps — flows from one sim RNG seeded by Scenario.Seed;
// plans are generated before simulation starts, so equal seeds give
// bit-identical digests and simulated times for every traffic shape.
package workload

import (
	"errors"
	"fmt"
	"sort"

	"twochains/internal/core"
	"twochains/internal/fabric"
	"twochains/internal/mailbox"
	"twochains/internal/sim"
	"twochains/internal/tc"
	"twochains/internal/tcapp"
	"twochains/internal/tenant"
)

// Pattern names a traffic shape.
type Pattern string

// The built-in traffic shapes.
const (
	Fanout   Pattern = "fanout"
	AllToAll Pattern = "alltoall"
	Hotspot  Pattern = "hotspot"
)

// Patterns lists the three paper patterns in canonical order (the mesh
// experiments iterate these; TrafficNames lists every shape in the
// table, sorted).
func Patterns() []Pattern { return []Pattern{Fanout, AllToAll, Hotspot} }

// DefaultPkg is the package a mix entry with an empty Pkg refers to.
const DefaultPkg = "tcbench"

// ElementMix is one entry of a phase's traffic mix: an element of a
// tcapp package with a selection weight, sent either as an
// Injected Function (code travels) or a Local Function (IDs travel).
type ElementMix struct {
	// Pkg is the tcapp application package ("" = tcbench).
	Pkg    string
	Elem   string
	Weight int
	Local  bool
}

// ArrivalKind selects a phase's arrival process.
type ArrivalKind uint8

const (
	// ClosedLoop self-clocks: a sender's next burst is issued from the
	// completion of its previous one.
	ClosedLoop ArrivalKind = iota
	// Poisson issues each sender's bursts at exponential interarrival
	// gaps (drawn deterministically at plan time), independent of
	// completions — open-loop offered load.
	Poisson
	// MMPP issues bursts from a two-state Markov-modulated Poisson
	// process: a base state at RatePerSec and a burst state at
	// BurstRatePerSec, with exponential sojourns of mean MeanBase /
	// MeanBurst — open-loop bursty offered load.
	MMPP
)

// Arrival is a phase's arrival process. Its Kind indexes the fixed table
// of processes in arrival.go; validation rejects any other kind.
type Arrival struct {
	Kind ArrivalKind
	// RatePerSec is the mean burst arrival rate per sender in simulated
	// seconds (Poisson; the MMPP base state).
	RatePerSec float64
	// BurstRatePerSec is the MMPP burst state's arrival rate.
	BurstRatePerSec float64
	// MeanBase/MeanBurst are the MMPP mean state sojourns.
	MeanBase  sim.Duration
	MeanBurst sim.Duration
}

// Swap is a remote-linking dynamic update expressed as data: when the
// owning phase opens, the RIED elements of the named app are
// re-installed on Node (replacing name bindings) and every channel into
// it re-runs the namespace exchange. In-flight Func handles re-bind on
// their next call.
type Swap struct {
	Node int
	// App is the tcapp application whose RIEDs are
	// reinstalled ("" = tcbench).
	App string
}

// Fail schedules a hard node failure as phase data: At after the
// owning phase opens, Node is torn down — its channels are severed,
// queued sends into and out of it fail fast with *core.NodeDownError,
// sender-side prepared-jam caches for it are invalidated, and every
// message addressed to it that had been issued but not yet executed is
// accounted as lost (Result.Lost). The node's own unissued plan is
// abandoned and counted lost too.
type Fail struct {
	Node int
	At   sim.Duration
}

// Rejoin brings a previously failed node back when the owning phase
// opens. The node returns with empty channel state: channels into and
// out of it rebuild lazily on the next call, re-running the namespace
// exchange.
type Rejoin struct {
	Node int
}

// Phase is one stage of a scenario. Zero fields inherit the scenario-
// level value (Traffic from Pattern, Rounds and Mix from the scenario),
// a nil Arrival is closed loop, and every phase sends Scenario.Burst
// messages per injection; a phase opens when the previous phase's plan
// has fully executed.
type Phase struct {
	Name    string
	Traffic string // traffic shape name ("" = Scenario.Pattern)
	Rounds  int
	Mix     []ElementMix
	Arrival *Arrival
	Swap    *Swap
	// Fail schedules node failures at offsets from phase open; Rejoin
	// brings nodes failed in earlier phases back when this phase opens.
	// With Tenants, at most one tenant's phases may carry them.
	Fail   []Fail
	Rejoin []Rejoin
	// Arg1Random additionally draws the second argument word per message
	// (value-carrying app workloads use it; the legacy patterns leave
	// args[1] zero and consume no extra randomness).
	Arg1Random bool
}

// ChaosSpec perturbs the fabric: the scenario's backend is wrapped in
// the "chaos" transport, which delays every put by a deterministic
// pseudo-random duration in [MinDelay, MaxDelay] (preserving per-
// destination order).
type ChaosSpec struct {
	MinDelay sim.Duration
	MaxDelay sim.Duration
}

// Scenario parameterizes one workload run.
type Scenario struct {
	// Pattern is the traffic shape of a phaseless scenario, and the
	// default Traffic of every phase.
	Pattern Pattern
	// Nodes is the mesh size; Shards the fabric-shard count (0 = default).
	Nodes, Shards int
	// Workers is neither read nor validated: a simulation runs on one
	// engine.
	//
	// Deprecated: ignored. Kept until benchmark/ stops naming it.
	Workers int
	// Burst is the messages per batched injection; Rounds the traffic
	// generator's repetition knob.
	Burst, Rounds int
	PayloadBytes  int
	// Mix is the default element mix; empty selects DefaultMix.
	Mix  []ElementMix //tclint:allow neverset an item 7(a) shim: benchmark/ still reads it
	Seed uint64
	// Timing enables the cache/CPU cost model (required for meaningful
	// rates; functional tests turn it off for speed).
	Timing bool
	// Interpreter is never read: the interpret loop is the only engine.
	//
	// Deprecated: inert since PR 21. Kept until benchmark/ stops naming it.
	Interpreter bool //tclint:allow writeonly an item 7(a) shim: benchmark/ still sets it
	// DisableSwap turns off the hotspot pattern's built-in mid-phase
	// RIED hot-swap (phase-level Swap entries are unaffected).
	DisableSwap bool
	// Backend selects the fabric transport ("" = default "simnet").
	Backend string
	// Chaos, when set, wraps Backend in the chaos failure-injection
	// transport with these perturbation bounds. Equal seeds still give
	// bit-identical results: the perturbation RNG is split per port and
	// consumed in issue order.
	Chaos *ChaosSpec
	// Phases composes the run; empty means one closed-loop phase of
	// Pattern.
	Phases []Phase
	// Tenants makes the run multi-tenant: each entry drives its own lane
	// (its Phases, or the scenario-level phases when unset) through a
	// per-tenant package namespace, weighted-fair servicing at every
	// receiver, and optional token-bucket admission. Result.Tenants
	// reports per-tenant goodput, drop/defer/loss counts, and p99
	// simulated latency. Empty runs the scenario-level phases as one lane
	// on the base namespace.
	Tenants []TenantSpec

	// OnExecuted observes every handler execution (node index, return
	// value, error) — the hook equivalence tests use to compare injected
	// execution against a native oracle.
	OnExecuted func(node int, ret uint64, err error) //tclint:allow neverset the workload oracle tests observe executions through it
}

// DefaultScenario returns a ready-to-run scenario of the given pattern.
func DefaultScenario(p Pattern, nodes int) Scenario {
	return Scenario{
		Pattern:      p,
		Nodes:        nodes,
		Burst:        8,
		Rounds:       3,
		PayloadBytes: 64,
		Seed:         0x7c2c2021,
		Timing:       true,
	}
}

// DefaultMix is the standard mixed workload: mostly injected code, some
// Local Function traffic.
func DefaultMix() []ElementMix {
	return []ElementMix{
		{Elem: "jam_sssum", Weight: 3},
		{Elem: "jam_iput", Weight: 2},
		{Elem: "jam_sssum", Weight: 1, Local: true},
	}
}

// NodeResult is one node's view of the run.
type NodeResult struct {
	// Sent is the number of messages the plan addressed to this node;
	// Executed the handlers that ran; Errors the handler failures.
	Sent     int
	Executed int
	Errors   int
	// Digest folds this node's return values in execution order.
	Digest uint64
}

// PhaseResult is one phase's slice of the run.
type PhaseResult struct {
	Name string
	// Planned is the phase's planned message count; Executed the handler
	// completions (including faults) attributed to it in plan order.
	Planned  int
	Executed int
	// End is the simulated time the phase's plan finished executing.
	End sim.Duration
	// Swapped reports that the phase performed a RIED swap (its own Swap
	// entry or the hotspot pattern's built-in one).
	Swapped bool
}

// Result reports one scenario run.
type Result struct {
	Shards int // fabric shards actually used
	// Windows is always 0.
	//
	// Deprecated: ignored. Kept until benchmark/ stops naming it.
	Windows    uint64 //tclint:allow neverset an item 7(a) shim: benchmark/ still reads it
	Injections int    // handlers executed fabric-wide
	// Lost counts planned messages a node failure made unexecutable:
	// issued-but-not-executed backlog into the dead node, queued sends
	// out of it, its own unissued plan, and bursts refused at issue while
	// it was down. Executed + handler errors + Lost always equals the
	// planned total — every planned message is accounted for exactly once
	// (per tenant, Serviced + Dropped + Lost equals Planned).
	Lost       int
	SimTime    sim.Duration // simulated wall time of the whole run
	RatePerSec float64      // simulated injections per simulated second
	Digest     uint64       // order-insensitive fold of per-node digests
	PerNode    []NodeResult
	Phases     []PhaseResult
	Mesh       core.MeshStats
	Swapped    bool // a RIED swap fired during the run
	HotNode    int  // skew target of the last hotspot phase (-1 otherwise)
	// Tenants reports per-tenant outcomes of a multi-tenant run (nil
	// otherwise); in that mode the top-level Phases slice is empty.
	Tenants []TenantResult
	// OverlapWindow is the interval every tenant was still being serviced
	// in: the minimum over tenants of their last service stamp. Per-tenant
	// goodput is measured inside it, so weight shares compare servicing
	// rates, not drain tails.
	OverlapWindow sim.Duration
}

// burst is one planned batched send.
type burst struct {
	dst   int
	mix   ElementMix
	args  [][2]uint64
	local bool
	// at is the open-loop issue offset from phase open (closed loop: 0).
	at sim.Duration
}

// phasePlan is one phase's deterministic, pre-generated traffic
// schedule: one burst queue per sender, plus the phase's planned
// dynamic updates.
type phasePlan struct {
	spec   *phaseSpec
	bursts [][]burst // indexed by sender
	sent   []int     // messages addressed per destination
	total  int
	// hotNode is the phase's skew target (-1 none).
	hotNode int
	// swapNode/swapApp plan the hotspot shape's built-in mid-phase swap
	// (-1 none; planner.swapAtHalf): the executed-count threshold is
	// armed when the phase opens, and swapFired keeps the trigger
	// one-shot independent of any open-time Swap entry the same phase
	// performed.
	swapNode    int
	swapApp     string
	swapTrigger int
	swapFired   bool
}

// buildPlan runs the phase's Traffic generator, consuming the RNG in
// the generator's emission order so the schedule is a pure function of
// the scenario, then draws open-loop arrival gaps (senders ascending).
func buildPlan(sc *Scenario, spec *phaseSpec, rng *sim.RNG) (*phasePlan, error) {
	pp := &phasePlan{
		spec:     spec,
		bursts:   make([][]burst, sc.Nodes),
		sent:     make([]int, sc.Nodes),
		hotNode:  -1,
		swapNode: -1,
	}
	gen, ok := traffics[spec.traffic]
	if !ok {
		return nil, &ScenarioError{Field: spec.at("Traffic"), Reason: fmt.Sprintf("unknown traffic %q", spec.traffic)}
	}
	p := &planner{nodes: sc.Nodes, sc: sc, spec: spec, rng: rng, pp: pp}
	gen(p)
	if p.err != nil {
		return nil, p.err
	}
	if gen := arrivalSpecFor(spec.arrival.Kind); gen != nil && gen.gen != nil {
		for src := range pp.bursts {
			if len(pp.bursts[src]) == 0 {
				continue
			}
			ats := gen.gen(&spec.arrival, rng, len(pp.bursts[src]))
			for i := range pp.bursts[src] {
				pp.bursts[src][i].at = ats[i]
			}
		}
	}
	return pp, nil
}

// lane is the unit the driver runs: one phase program issued through one
// namespace view. A scenario without Tenants is one lane on the base
// namespace (view "", no tenant registered, no arbiter); a multi-tenant
// scenario is one lane per tenant. Plans, phase barriers, senders, issue
// classification and the loss ledger are the same code for every lane.
// What differs is where packages install and handles resolve (install,
// fn) and the instant a message counts as progress (the two tick sites:
// Run's node hook and hookChannel).
type lane struct {
	r     *runner
	view  string         // namespace view ("" = base)
	ten   *tenant.Tenant // nil on the base lane
	specs []phaseSpec
	plans []*phasePlan
	cum   []int // cumulative planned messages through each phase
	phase int   // index of the open phase

	// settled counts resolved plan: messages ticked at a receiver, dropped
	// by admission, or lost to a node failure. A phase barrier trips, and
	// the run completes, when it reaches the cumulative planned count.
	settled int
	lost    int
	phases  []PhaseResult

	fns []map[[2]string]*tc.Func // per sender: (pkg, elem) -> handle

	// The loss ledger. chains exposes each source's closed-loop sender so
	// a node failure can abandon (and account) the dead node's unissued
	// remainder; issued counts successfully issued messages per
	// destination; ticked the messages that finished there.
	chains []*sender
	issued []int
	ticked []int

	// Samples of a tenant lane, which reports a TenantResult (the base
	// lane collects none): service stamps, issue-to-delivery latencies
	// and failure count.
	svc  []sim.Time
	lat  []sim.Duration
	errs int
}

// runner drives one scenario run: it owns the lanes, the swap machinery
// and the failure plan.
type runner struct {
	sys    *tc.System
	res    *Result
	lanes  []*lane
	byView map[string]*lane

	payload []byte

	// issueErr is the first issue error; once set every sender stops.
	issueErr error
	swapErr  error
}

// fail records the first issue error and stops every sender.
func (r *runner) fail(err error) {
	if r.issueErr == nil {
		r.issueErr = err
	}
}

// onChannel observes every lazy channel creation: a tenant lane's
// channel gets its tick site attached.
func (r *runner) onChannel(_, dst int, view string, ch *core.Channel) {
	if l := r.byView[view]; l != nil && l.ten != nil {
		l.hookChannel(dst, ch)
	}
}

// install puts every package the lane's phases reference into the lane's
// namespace on every node, in name order, so package IDs are a pure
// function of the scenario.
func (l *lane) install(pkgs map[string]*core.Package) error {
	mine := map[string]*core.Package{}
	for i := range l.specs {
		for _, m := range l.specs[i].mix {
			mine[m.Pkg] = pkgs[m.Pkg]
		}
		if sw := l.specs[i].swap; sw != nil {
			mine[sw.App] = pkgs[sw.App]
		}
	}
	for _, name := range sortedKeys(mine) {
		var err error
		if l.ten == nil {
			err = l.r.sys.InstallPackage(mine[name])
		} else {
			err = l.r.sys.InstallPackageFor(l.view, mine[name])
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// fn resolves (and caches) the sender's handle for one element in the
// lane's namespace — the bind-once/call-many idiom.
func (l *lane) fn(src int, pkg, elem string) (*tc.Func, error) {
	if l.fns[src] == nil {
		l.fns[src] = map[[2]string]*tc.Func{}
	}
	key := [2]string{pkg, elem}
	if f, ok := l.fns[src][key]; ok {
		return f, nil
	}
	var f *tc.Func
	var err error
	if l.ten == nil {
		f, err = l.r.sys.Func(src, pkg, elem)
	} else {
		f, err = l.r.sys.FuncFor(l.view, src, pkg, elem)
	}
	if err != nil {
		return nil, err
	}
	l.fns[src][key] = f
	return f, nil
}

// hookChannel is a tenant lane's tick site: a message counts as progress
// when its service completes on the lane's own channel, because that is
// where it can be attributed to the tenant. (The base lane ticks at
// execution instead — Run's node hook — which is what its digests,
// simulated times and built-in mid-phase swap were pinned against; the
// instant decides when the next phase opens on the simulated clock, so
// the two sites are not interchangeable.)
func (l *lane) hookChannel(dst int, ch *core.Channel) {
	ch.Recv.OnProcessed = func(_ *mailbox.Delivery, t sim.Time) {
		l.svc = append(l.svc, t)
		l.tick(dst, 1)
	}
	ch.Recv.OnError = func(d *mailbox.Delivery, _ error) {
		l.errs++
		if d == nil {
			// The frame never parsed, so OnProcessed will not fire for it;
			// count it here or the accounting hangs.
			l.tick(dst, 1)
		}
	}
}

// tick folds n messages that finished at dst into the lane.
func (l *lane) tick(dst, n int) {
	l.ticked[dst] += n
	l.settle(n, true)
}

// drop accounts an admission-dropped burst (the tenant counts it): the
// messages will never reach a receiver, so they settle here.
func (l *lane) drop(n int) {
	l.settle(n, true)
}

// lose accounts n planned messages a failure made unexecutable. Lost
// messages advance the phase barrier exactly like executions — they are
// resolved plan, just resolved by loss — so phases keep opening and the
// final accounting stays exact; they are not attributed to a phase's
// Executed count.
func (l *lane) lose(n int) {
	if n > 0 {
		l.lost += n
		l.settle(n, false)
	}
}

// settle resolves n planned messages; executed attributes them to the
// open phase's Executed count.
func (l *lane) settle(n int, executed bool) {
	if executed {
		l.phases[l.phase].Executed += n
	}
	l.settled += n
	l.advance()
}

// advance opens phases until the open one still has unsettled plan (or
// the lane is out of phases). The moment the count trips, the next
// phase's senders all arm at the same instant.
func (l *lane) advance() {
	for l.phase < len(l.plans)-1 && l.settled >= l.cum[l.phase] {
		l.phases[l.phase].End = sim.Duration(l.r.sys.Now())
		l.phase++
		l.open()
	}
}

// performSwap re-installs the app's RIED elements on the node
// (replacing name bindings) and re-runs the namespace exchange on every
// channel into it — the remote-linking dynamic update, performed while
// traffic may still be in flight.
func (r *runner) performSwap(l *lane, node int, app string) {
	if app == "" {
		app = DefaultPkg
	}
	err := func() error {
		spkg, err := tcapp.BuildRieds(app)
		if err != nil {
			return err
		}
		for _, e := range spkg.Elements {
			if e.Kind != core.ElemRied {
				continue
			}
			if _, err := r.sys.InstallRied(node, e.Ried, true); err != nil {
				return err
			}
		}
		r.sys.RefreshNames(node)
		return nil
	}()
	if err != nil && r.swapErr == nil {
		r.swapErr = err
	}
	r.res.Swapped = true
	l.phases[l.phase].Swapped = true
}

// open performs the open phase's rejoins and planned swap, arms its
// built-in mid-phase swap against the swap node's current executed count,
// schedules its failures, and starts its senders.
func (l *lane) open() {
	r, pp := l.r, l.plans[l.phase]
	eng := r.sys.Engine()
	// Rejoins happen at phase open: channels into the rejoined node
	// rebuild lazily, like any first use.
	for _, rj := range pp.spec.rejoin {
		if err := r.sys.RejoinNode(rj.Node); err != nil {
			r.fail(err)
			return
		}
	}
	if pp.spec.swap != nil {
		r.performSwap(l, pp.spec.swap.Node, pp.spec.swap.App)
	}
	if pp.swapNode >= 0 {
		pp.swapTrigger = r.res.PerNode[pp.swapNode].Executed + pp.sent[pp.swapNode]/2
	}
	for _, fl := range pp.spec.fail {
		node := fl.Node
		eng.After(fl.At, func() { r.doFail(node) })
	}
	for src := range pp.bursts {
		if len(pp.bursts[src]) == 0 {
			continue
		}
		s := &sender{l: l, src: src, eng: eng, queue: pp.bursts[src]}
		if pp.spec.arrival.openLoop() {
			s.armOpen()
		} else {
			s.armClosed()
		}
	}
}

// doFail tears node down mid-run. Every lane's loss ledger stays exact:
// each planned message lands in exactly one of ticked, dropped, or lost.
func (r *runner) doFail(node int) {
	// Abandon the dead node's own unissued plans first, so the callbacks
	// of the sends FailNode fails (which re-fire issue chains
	// synchronously) see the chains already dead.
	lost := map[*lane]int{}
	for _, l := range r.lanes {
		if s := l.chains[node]; s != nil && !s.dead {
			s.dead = true
			for _, b := range s.queue[s.next:] {
				lost[l] += len(b.args)
			}
		}
	}
	// Outbound: sends queued on the dead node's own channels were issued
	// but will never arrive anywhere; FailNode counts them per view.
	outbound, err := r.sys.FailNode(node)
	if err != nil {
		r.fail(err)
		return
	}
	// Inbound backlog: issued to the node but never finished there —
	// queued sends FailNode just failed, frames delivered but not yet
	// serviced, and traffic still on the wire (its delivery writes memory
	// but the stopped receiver never services it).
	for _, l := range r.lanes {
		l.lose(lost[l] + outbound[l.view] + l.issued[node] - l.ticked[node])
	}
}

// sender issues one phase's bursts for one lane from one source node,
// under either arrival discipline.
type sender struct {
	l     *lane
	src   int
	eng   *sim.Engine
	queue []burst
	// next and dead are the closed-loop issue position, reachable through
	// lane.chains so a node failure can abandon the chain and count its
	// unissued remainder; issueAt stamps its one burst in flight.
	next    int
	dead    bool
	issueAt sim.Time
	// opts is the call-option scratch: Func.Call consumes its options
	// synchronously, so one per sender serves every burst and the issue
	// path allocates no option slice.
	opts [3]tc.CallOpt
}

// issue sends one burst and classifies a refusal. A future comes back
// only for a burst in flight (the caller observes and releases it); done
// reports that the burst is finished with either way. A burst refused
// because a node is down is lost; an admission drop is dropped; an
// admission deferral re-runs again at the bucket's retry hint and leaves
// the burst pending; anything else stops the run.
func (s *sender) issue(b *burst, again func()) (fu *tc.Future, done bool) {
	l := s.l
	fn, err := l.fn(s.src, b.mix.Pkg, b.mix.Elem)
	if err != nil {
		l.r.fail(err)
		return nil, false
	}
	opts := append(s.opts[:0], tc.Burst(b.args), tc.Payload(l.r.payload))
	if b.local {
		opts = append(opts, tc.Local())
	}
	fu = fn.Call(b.dst, b.args[0], opts...)
	err = fu.IssueErr()
	if err == nil {
		l.issued[b.dst] += len(b.args)
		return fu, true
	}
	// A failed-at-issue future never armed, so recycling is on us —
	// refusals are the steady state under admission control.
	fu.Release()
	var nd *core.NodeDownError
	var ae *tenant.AdmissionError
	switch {
	case errors.As(err, &nd):
		l.lose(len(b.args))
	case errors.As(err, &ae) && ae.Deferred:
		s.eng.After(ae.RetryAfter, again)
		return nil, false
	case ae != nil:
		l.drop(len(b.args))
	default:
		l.r.fail(err)
		return nil, false
	}
	return nil, true
}

// sample records one burst's issue-to-delivery latency on a reporting
// lane.
func (s *sender) sample(issueAt sim.Time, res tc.Result) {
	if s.l.ten != nil && res.Err == nil && res.Delivered > 0 {
		s.l.lat = append(s.l.lat, res.Delivered.Sub(issueAt))
	}
}

// armClosed installs the self-clocked issue chain: the sender fires its
// next burst when the last message of the previous one completes
// delivery. One completion callback per sender, not per burst: fire is
// the self-clock, onDone re-arms it. A refused burst settles at once and
// the chain self-clocks straight into the next.
func (s *sender) armClosed() {
	s.l.chains[s.src] = s
	var fire func()
	onDone := func(res tc.Result) {
		s.sample(s.issueAt, res)
		fire()
	}
	fire = func() {
		for s.next < len(s.queue) && !s.dead && s.l.r.issueErr == nil {
			s.issueAt = s.eng.Now()
			fu, done := s.issue(&s.queue[s.next], fire)
			if !done {
				return
			}
			s.next++
			if fu != nil {
				// The future is not touched after its Done callback: hand it
				// back to the pool so self-clocked senders recycle one future
				// per in-flight burst instead of allocating per burst.
				fu.Done(onDone).Release()
				return
			}
		}
	}
	s.eng.After(0, fire)
}

// armOpen schedules every burst at its pre-drawn arrival offset from now
// — open-loop offered load, independent of completions. A deferred burst
// re-issues at the retry hint while later bursts keep their own
// schedule.
func (s *sender) armOpen() {
	for i := range s.queue {
		b := &s.queue[i]
		var issueAt sim.Time
		// Only a reporting lane observes completions; otherwise the burst
		// is fire and forget and the future recycles itself.
		var onDone func(tc.Result)
		if s.l.ten != nil {
			onDone = func(res tc.Result) { s.sample(issueAt, res) }
		}
		var send func()
		send = func() {
			if s.l.r.issueErr != nil {
				return
			}
			issueAt = s.eng.Now()
			if fu, _ := s.issue(b, send); fu != nil {
				fu.Done(onDone).Release()
			}
		}
		s.eng.After(b.at, send)
	}
}

// systemOpts is the one place a scenario becomes system options, so
// every scenario field applies to every lane layout.
func (sc *Scenario) systemOpts(frame int) []tc.SystemOpt {
	opts := []tc.SystemOpt{
		tc.WithSeed(sc.Seed),
		tc.WithTiming(sc.Timing),
		tc.WithBackend(sc.Backend),
		tc.WithConfig(func(c *core.MeshConfig) { c.Geometry.FrameSize = frame }),
	}
	if sc.Shards > 0 {
		opts = append(opts, tc.WithShards(sc.Shards))
	}
	if sc.Chaos != nil {
		opts = append(opts, tc.WithChaos(fabric.ChaosConfig{
			MinDelay: sc.Chaos.MinDelay,
			MaxDelay: sc.Chaos.MaxDelay,
		}))
	}
	return opts
}

// Run executes the scenario and reports the result. The run is fully
// deterministic: equal scenarios produce equal results. Validation and
// plan-building failures are *ScenarioError.
func Run(sc Scenario) (*Result, error) {
	res, _, err := run(sc)
	return res, err
}

// run is Run, also returning the lanes: with Tenants, lane i is tenant
// i, and its phases are that tenant's per-phase results.
func run(sc Scenario) (*Result, []*lane, error) {
	if err := sc.validateScalars(); err != nil {
		return nil, nil, err
	}
	// resolveLanes both defaults and validates the phase and tenant
	// surface — one pass covers what Validate would check.
	laneSpecs, err := sc.resolveLanes()
	if err != nil {
		return nil, nil, err
	}
	// Frame geometry and package builds cover every lane's specs.
	var all []phaseSpec
	for i := range laneSpecs {
		all = append(all, laneSpecs[i].specs...)
	}
	pkgs, err := packagesFor(all)
	if err != nil {
		return nil, nil, err
	}
	frame, err := frameSizeFor(pkgs, all, sc.PayloadBytes)
	if err != nil {
		return nil, nil, err
	}
	sys, err := tc.NewSystem(sc.Nodes, sc.systemOpts(frame)...)
	if err != nil {
		return nil, nil, err
	}
	// The system lives exactly as long as this call: whichever way it
	// returns, the nodes' memory goes back for the next run to reuse.
	// Result carries values only, never a view of node memory.
	defer sys.Close()

	res := &Result{
		Shards:  sys.Mesh().Cfg.Shards,
		PerNode: make([]NodeResult, sc.Nodes),
		HotNode: -1,
	}
	r := &runner{
		sys:     sys,
		res:     res,
		byView:  map[string]*lane{},
		payload: make([]byte, sc.PayloadBytes),
	}
	for i := range r.payload {
		r.payload[i] = byte(i*31 + 7)
	}

	// Lanes in declared order: a tenant lane registers its tenant (dense
	// IDs = arbiter classes); every lane installs its packages.
	for i := range laneSpecs {
		ls := &laneSpecs[i]
		n := len(ls.specs)
		l := &lane{
			r: r, view: ls.cfg.Name, specs: ls.specs,
			plans:  make([]*phasePlan, n),
			cum:    make([]int, n),
			phases: make([]PhaseResult, n),
			fns:    make([]map[[2]string]*tc.Func, sc.Nodes),
			chains: make([]*sender, sc.Nodes),
			issued: make([]int, sc.Nodes),
			ticked: make([]int, sc.Nodes),
		}
		if l.view != "" {
			if l.ten, err = sys.AddTenant(ls.cfg); err != nil {
				return nil, nil, err
			}
		}
		r.lanes = append(r.lanes, l)
		r.byView[l.view] = l
		if err := l.install(pkgs); err != nil {
			return nil, nil, err
		}
	}
	sys.Mesh().OnChannelCreated = r.onChannel

	// Plans are generated lane by lane, phase by phase, from the one
	// seeded RNG before the simulation starts — the whole schedule is a
	// pure function of the scenario.
	total := 0
	for _, l := range r.lanes {
		planned := 0
		for j := range l.specs {
			pp, err := buildPlan(&sc, &l.specs[j], sys.RNG())
			if err != nil {
				return nil, nil, err
			}
			if l.ten != nil {
				// RIED swaps inside a namespace view are not modelled, so a
				// shape's built-in mid-phase swap stays unplanned there.
				pp.swapNode = -1
			}
			l.plans[j] = pp
			planned += pp.total
			l.cum[j] = planned
			l.phases[j] = PhaseResult{Name: l.specs[j].name, Planned: pp.total}
			if pp.hotNode >= 0 {
				res.HotNode = pp.hotNode
			}
			for dst, n := range pp.sent {
				res.PerNode[dst].Sent += n
			}
		}
		total += planned
	}

	base := r.byView[""]
	for i := 0; i < sc.Nodes; i++ {
		node := i
		sys.Node(i).OnExecuted = func(ret uint64, _ sim.Duration, err error) {
			nr := &res.PerNode[node]
			if err != nil {
				nr.Errors++
			} else {
				nr.Executed++
				nr.Digest = nr.Digest*1099511628211 + ret + 1
			}
			if sc.OnExecuted != nil {
				sc.OnExecuted(node, ret, err)
			}
			if base == nil {
				return // tenant lanes tick per channel: see hookChannel
			}
			pp := base.plans[base.phase]
			if node == pp.swapNode && !pp.swapFired && nr.Executed >= pp.swapTrigger {
				pp.swapFired = true
				r.performSwap(base, pp.swapNode, pp.swapApp)
			}
			base.tick(node, 1)
		}
	}

	for _, l := range r.lanes {
		l.open()
		// Chain straight through leading zero-traffic phases (e.g. a
		// swap-only opener): nothing will execute to advance past them.
		l.advance()
	}
	sys.Run()
	sys.Mesh().OnChannelCreated = nil
	if r.issueErr != nil {
		return nil, nil, r.issueErr
	}
	if r.swapErr != nil {
		return nil, nil, r.swapErr
	}

	res.SimTime = sim.Duration(sys.Now())
	res.Mesh = sys.Stats()
	for _, nr := range res.PerNode {
		res.Injections += nr.Executed
		res.Digest += nr.Digest // order-insensitive across nodes
	}
	if secs := res.SimTime.Seconds(); secs > 0 {
		res.RatePerSec = float64(res.Injections) / secs
	}
	settled := 0
	for _, l := range r.lanes {
		l.phases[l.phase].End = res.SimTime
		res.Lost += l.lost
		settled += l.settled
	}
	if base != nil {
		res.Phases = base.phases
	} else {
		res.Tenants, res.OverlapWindow = tenantResults(r.lanes)
	}
	if settled != total {
		return res, r.lanes, fmt.Errorf("workload: %s settled %d of %d planned messages (%d lost)",
			sc.Pattern, settled, total, res.Lost)
	}
	return res, r.lanes, nil
}

// sortedKeys returns the map's keys in sorted order.
func sortedKeys(m map[string]*core.Package) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
