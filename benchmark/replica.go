package main

import (
	"fmt"

	"twochains/internal/core"
	"twochains/internal/mailbox"
	"twochains/internal/memsim"
	"twochains/internal/sim"
	"twochains/internal/tc"
	"twochains/internal/tcapp"
	"twochains/internal/workload"
)

// workload.Run returns no tc.System, so the vm, sim and memsim counters
// inside it cannot be read from outside. The replica drives the same
// shape — node count, shards, frame geometry, packages, mix, payload,
// burst and rounds — through the public tc API itself, which is where
// the tc.* stage times and the per-delivery counts come from. It is not
// a second driver: no phases, arrivals, swaps or tenants; every pair's
// burst of a round is issued, then the system is drained.

// stageNs are the host-clock nanoseconds of the replica's stages.
type stageNs struct {
	build, newSystem, install, bind, channel, issue, drain float64
	channels, binds                                        int
}

func (s *stageNs) total() float64 {
	return s.build + s.newSystem + s.install + s.bind + s.channel + s.issue + s.drain
}

// counts are the per-layer counters of a system after traffic.
type counts struct {
	inj       int
	delivered uint64 // frames the receivers processed
	compiles  uint64 // JIT translations built by deliveries (install-time ones excluded)
	deopts    uint64
	steps     uint64
	hier      memsim.Stats
	mesh      core.MeshStats
}

// spanNs times fn under a span and returns its nanoseconds.
func spanNs(tr *tracer, name spanName, fn func()) float64 {
	return timeLoopAs(tr, name, 1, func(int) { fn() })
}

// readCounts sums the counters the public surface exposes per node.
func readCounts(sys *tc.System) counts {
	var k counts
	for i := 0; i < sys.Nodes(); i++ {
		n := sys.Node(i)
		k.compiles += n.VM.JITCompiles
		k.deopts += n.VM.JITDeopts
		if n.Hier != nil {
			h := n.Hier.Stats()
			k.hier.LinesL2 += h.LinesL2
			k.hier.LinesL3 += h.LinesL3
			k.hier.LinesLLC += h.LinesLLC
			k.hier.LinesDRAM += h.LinesDRAM
			k.hier.NetStashed += h.NetStashed
			k.hier.NetToDRAM += h.NetToDRAM
		}
	}
	k.steps = sys.Engine().Steps()
	k.mesh = sys.Stats()
	return k
}

// scenarioMix flattens every mix a scenario names, tenants' included.
func scenarioMix(sc *workload.Scenario) []workload.ElementMix {
	var mix []workload.ElementMix
	mix = append(mix, sc.Mix...)
	for _, ph := range sc.Phases {
		mix = append(mix, ph.Mix...)
	}
	for _, t := range sc.Tenants {
		for _, ph := range t.Phases {
			mix = append(mix, ph.Mix...)
		}
	}
	if len(mix) == 0 {
		mix = workload.DefaultMix()
	}
	for i := range mix {
		if mix[i].Pkg == "" {
			mix[i].Pkg = workload.DefaultPkg
		}
	}
	return mix
}

// frameSizeOf sizes the mailbox frame for the largest message of the
// mix, as workload.Run does.
func frameSizeOf(pkgs map[string]*core.Package, mix []workload.ElementMix, payload int) (int, error) {
	max := 0
	for _, m := range mix {
		elem, ok := pkgs[m.Pkg].Element(m.Elem)
		if !ok {
			return 0, fmt.Errorf("no element %s/%s", m.Pkg, m.Elem)
		}
		n := mailbox.PackLocal(1, 1, [2]uint64{}, make([]byte, payload)).WireLen()
		if !m.Local {
			var err error
			if n, err = core.InjectedFrameLen(elem, payload); err != nil {
				return 0, err
			}
		}
		if n > max {
			max = n
		}
	}
	return max, nil
}

// replica runs sc's shape through the tc API on one engine and returns
// the stage times, the counters and the frame size it derived.
func replica(sc *workload.Scenario, tr *tracer) (stageNs, counts, int, error) {
	var st stageNs
	var k counts
	var err error
	sp := tr.begin(spReplica)
	defer tr.end(sp)

	mix := scenarioMix(sc)
	pkgs := map[string]*core.Package{}
	names := scenarioPackages(sc)
	for _, name := range names {
		st.build += spanNs(tr, spTcappBuild, func() { pkgs[name], err = tcapp.Build(name) })
		if err != nil {
			return st, k, 0, err
		}
	}
	frame, err := frameSizeOf(pkgs, mix, sc.PayloadBytes)
	if err != nil {
		return st, k, 0, err
	}
	opts := []tc.SystemOpt{tc.WithSeed(sc.Seed), tc.WithTiming(sc.Timing),
		tc.WithConfig(func(c *core.MeshConfig) { c.Geometry.FrameSize = frame })}
	if sc.Shards > 0 {
		opts = append(opts, tc.WithShards(sc.Shards))
	}
	var sys *tc.System
	st.newSystem = spanNs(tr, spNewSystem, func() { sys, err = tc.NewSystem(sc.Nodes, opts...) })
	if err != nil {
		return st, k, frame, err
	}
	for _, name := range names {
		st.install += spanNs(tr, spInstall, func() { err = sys.InstallPackage(pkgs[name]) })
		if err != nil {
			return st, k, frame, err
		}
	}
	installed := readCounts(sys).compiles

	// One handle per sender and mix entry, one channel per pair.
	fns := make([][]*tc.Func, sc.Nodes)
	for src := range fns {
		fns[src] = make([]*tc.Func, len(mix))
		for j, m := range mix {
			st.bind += spanNs(tr, spFuncBind, func() { fns[src][j], err = sys.Func(src, m.Pkg, m.Elem) })
			st.binds++
			if err != nil {
				return st, k, frame, err
			}
		}
		for dst := 0; dst < sc.Nodes; dst++ {
			if dst == src {
				continue
			}
			st.channel += spanNs(tr, spChannel, func() { _, err = sys.Channel(src, dst) })
			st.channels++
			if err != nil {
				return st, k, frame, err
			}
		}
	}

	// Weighted rotation through the mix, arguments from the scenario's
	// seed: one burst per ordered pair per round.
	var pick []int
	for j, m := range mix {
		for w := 0; w < m.Weight; w++ {
			pick = append(pick, j)
		}
	}
	rng := sim.NewRNG(sc.Seed)
	payload := tc.Payload(patternBytes(sc.PayloadBytes))
	batch := make([][2]uint64, sc.Burst)
	execErrs := 0
	for i := 0; i < sc.Nodes; i++ {
		sys.Node(i).OnExecuted = func(_ uint64, _ sim.Duration, err error) {
			if err != nil {
				execErrs++
			}
		}
	}
	turn := 0
	for round := 0; round < sc.Rounds; round++ {
		st.issue += spanNs(tr, spCall, func() {
			for src := 0; src < sc.Nodes; src++ {
				for dst := 0; dst < sc.Nodes; dst++ {
					if dst == src {
						continue
					}
					j := pick[turn%len(pick)]
					turn++
					for b := range batch {
						batch[b] = [2]uint64{rng.Uint64(), rng.Uint64()}
					}
					opts := [3]tc.CallOpt{tc.Burst(batch), payload}
					n := 2
					if mix[j].Local {
						opts[2], n = tc.Local(), 3
					}
					if e := fns[src][j].Call(dst, batch[0], opts[:n]...).IssueErr(); e != nil {
						err = e
					}
				}
			}
		})
		if err != nil {
			return st, k, frame, err
		}
		st.drain += spanNs(tr, spDrain, sys.Run)
	}
	k = readCounts(sys)
	k.compiles -= installed
	k.delivered = k.mesh.Processed
	k.inj = int(k.delivered) - execErrs
	if want := sc.Rounds * sc.Nodes * (sc.Nodes - 1) * sc.Burst; k.inj != want {
		return st, k, frame, fmt.Errorf("replica executed %d of %d planned messages", k.inj, want)
	}
	return st, k, frame, nil
}
