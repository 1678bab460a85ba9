package workload

import (
	"fmt"
	"sort"

	"twochains/internal/sim"
)

// Topology is the read-only deployment view a Traffic generator plans
// against: how many nodes there are and where the fabric places them.
type Topology struct {
	Nodes  int
	Shards int
	// ShardOf reports the fabric shard a node lives in (topology-aware
	// generators can keep traffic inside or across leaf domains).
	ShardOf func(node int) int
}

// Traffic generates one phase's deterministic burst plan. Generate must
// draw all randomness from the Planner's RNG and emit bursts in a
// deterministic order: the plan must be a pure function of (topology,
// scenario, RNG state). Every implementation registered by name gets
// the determinism property test in traffic_test.go for free.
type Traffic interface {
	Generate(p *Planner) error
}

// TrafficFunc adapts a plain generator function to Traffic.
type TrafficFunc func(p *Planner) error

// Generate implements Traffic.
func (f TrafficFunc) Generate(p *Planner) error { return f(p) }

var trafficRegistry = map[string]func() Traffic{}

// RegisterTraffic adds a traffic shape under a scenario-selectable
// name. It panics on duplicates or missing pieces — registration
// happens at init time, where a panic is a build error.
func RegisterTraffic(name string, factory func() Traffic) {
	if name == "" || factory == nil {
		panic("workload: RegisterTraffic needs a name and a factory")
	}
	if _, dup := trafficRegistry[name]; dup {
		panic("workload: RegisterTraffic: duplicate traffic " + name)
	}
	trafficRegistry[name] = factory
}

// TrafficNames lists every registered traffic shape in sorted order.
func TrafficNames() []string {
	out := make([]string, 0, len(trafficRegistry))
	for n := range trafficRegistry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// newTraffic instantiates a registered shape.
func newTraffic(name string) (Traffic, bool) {
	f, ok := trafficRegistry[name]
	if !ok {
		return nil, false
	}
	return f(), true
}

// Planner is the surface a Traffic generator emits through: the
// topology, the phase parameters, the scenario's deterministic RNG, and
// Emit. It accumulates the phase plan.
type Planner struct {
	topo Topology
	sc   *Scenario
	spec *phaseSpec
	rng  *sim.RNG
	pp   *phasePlan
	err  error
}

// Nodes returns the node count.
func (p *Planner) Nodes() int { return p.topo.Nodes }

// Rounds returns the phase's round parameter — the conventional "how
// many times around" knob; generators are free to interpret it.
func (p *Planner) Rounds() int { return p.spec.rounds }

// Scenario returns the scenario being planned (read-only by
// convention).
func (p *Planner) Scenario() *Scenario { return p.sc }

// RNG is the deterministic random stream. All generator randomness must
// come from it, in emission order, or equal seeds stop replaying.
func (p *Planner) RNG() *sim.RNG { return p.rng }

// Emit plans one burst from src to dst: an element drawn from the
// phase mix and Burst() argument words drawn from the RNG, exactly one
// weighted-choice draw plus one (or two, with Arg1Random) word draws
// per message.
func (p *Planner) Emit(src, dst int) {
	if p.err == nil {
		if src < 0 || src >= p.topo.Nodes {
			p.err = &ScenarioError{Field: p.spec.at("Traffic"), Reason: fmt.Sprintf("emit from node %d of %d", src, p.topo.Nodes)}
		} else if dst < 0 || dst >= p.topo.Nodes {
			p.err = &ScenarioError{Field: p.spec.at("Traffic"), Reason: fmt.Sprintf("emit to node %d of %d", dst, p.topo.Nodes)}
		}
	}
	if p.err != nil {
		return
	}
	m := p.pickMix()
	args := p.mkArgs()
	p.pp.bursts[src] = append(p.pp.bursts[src], burst{dst: dst, mix: m, args: args, local: m.Local})
	p.pp.sent[dst] += p.spec.burst
	p.pp.total += p.spec.burst
}

// pickMix draws one weighted element choice.
func (p *Planner) pickMix() ElementMix {
	w := p.rng.Intn(p.spec.wsum)
	for _, m := range p.spec.mix {
		w -= m.Weight
		if w < 0 {
			return m
		}
	}
	return p.spec.mix[len(p.spec.mix)-1]
}

// mkArgs draws one burst's argument words.
func (p *Planner) mkArgs() [][2]uint64 {
	args := make([][2]uint64, p.spec.burst)
	for i := range args {
		args[i] = [2]uint64{p.rng.Uint64()%30000 + 1, 0}
		if p.spec.arg1Random {
			args[i][1] = p.rng.Uint64()%30000 + 1
		}
	}
	return args
}

// SetHotNode records the phase's skew target for Result.HotNode.
func (p *Planner) SetHotNode(node int) {
	if p.err == nil && (node < 0 || node >= p.topo.Nodes) {
		p.err = &ScenarioError{Field: p.spec.at("Traffic"), Reason: fmt.Sprintf("hot node %d of %d", node, p.topo.Nodes)}
		return
	}
	p.pp.hotNode = node
}

// SwapAtHalf plans the mid-phase remote-linking dynamic update: once
// node has executed half the messages this phase plans for it, the RIED
// elements of the named app are re-installed on it (replacing name
// bindings) and every channel into it re-runs the namespace exchange —
// while traffic is still in flight. In-flight Func handles re-bind on
// their next call.
func (p *Planner) SwapAtHalf(node int, app string) {
	if p.err == nil && (node < 0 || node >= p.topo.Nodes) {
		p.err = &ScenarioError{Field: p.spec.at("Traffic"), Reason: fmt.Sprintf("swap node %d of %d", node, p.topo.Nodes)}
		return
	}
	p.pp.swapNode, p.pp.swapApp = node, app
}

// The built-in shapes. Fanout/AllToAll/Hotspot are the paper's three
// mesh patterns (their plans — and therefore digests and simulated
// times — are bit-identical to the pre-registry implementation); Ring
// is the minimal neighbour exchange, mostly useful as a template for
// new shapes.
func init() {
	RegisterTraffic(string(Fanout), func() Traffic { return TrafficFunc(genFanout) })
	RegisterTraffic(string(AllToAll), func() Traffic { return TrafficFunc(genAllToAll) })
	RegisterTraffic(string(Hotspot), func() Traffic { return TrafficFunc(genHotspot) })
	RegisterTraffic(string(Ring), func() Traffic { return TrafficFunc(genRing) })
}

// genFanout: node 0 broadcasts bursts to every other node, round-robin.
func genFanout(p *Planner) error {
	for r := 0; r < p.Rounds(); r++ {
		for dst := 1; dst < p.Nodes(); dst++ {
			p.Emit(0, dst)
		}
	}
	return nil
}

// genAllToAll: every node bursts to every other node.
func genAllToAll(p *Planner) error {
	for src := 0; src < p.Nodes(); src++ {
		for r := 0; r < p.Rounds(); r++ {
			for dst := 0; dst < p.Nodes(); dst++ {
				if dst != src {
					p.Emit(src, dst)
				}
			}
		}
	}
	return nil
}

// genHotspot: skewed traffic onto one hot node, with the mid-phase RIED
// hot-swap planned at half the hot node's traffic (unless the scenario
// disables it).
func genHotspot(p *Planner) error {
	sc := p.Scenario()
	skew := sc.HotSkew
	if skew <= 0 {
		skew = 0.8
	}
	rng := p.RNG()
	hot := rng.Intn(p.Nodes())
	p.SetHotNode(hot)
	for src := 0; src < p.Nodes(); src++ {
		if src == hot {
			continue
		}
		for r := 0; r < p.Rounds()*(p.Nodes()-1); r++ {
			dst := hot
			// Background traffic needs a node that is neither the sender
			// nor the hot node; with 2 nodes none exists and every burst
			// goes hot.
			if p.Nodes() > 2 && !rng.Bernoulli(skew) {
				for {
					dst = rng.Intn(p.Nodes())
					if dst != src && dst != hot {
						break
					}
				}
			}
			p.Emit(src, dst)
		}
	}
	if !sc.DisableSwap {
		p.SwapAtHalf(hot, "tcbench")
	}
	return nil
}

// genRing: every node bursts to its clockwise neighbour.
func genRing(p *Planner) error {
	for r := 0; r < p.Rounds(); r++ {
		for src := 0; src < p.Nodes(); src++ {
			p.Emit(src, (src+1)%p.Nodes())
		}
	}
	return nil
}
