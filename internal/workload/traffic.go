package workload

import (
	"fmt"
	"sort"

	"twochains/internal/sim"
)

// traffics maps each scenario-selectable traffic shape to its plan
// generator. A generator draws all randomness from the planner's RNG and
// emits bursts in a deterministic order: the plan must be a pure function
// of (node count, scenario, RNG state). Every shape in the table gets the
// determinism property test in traffic_test.go. Fanout, AllToAll and
// Hotspot are the paper's three mesh patterns.
var traffics = map[string]func(p *planner){
	string(Fanout):   genFanout,
	string(AllToAll): genAllToAll,
	string(Hotspot):  genHotspot,
}

// TrafficNames lists every traffic shape in sorted order.
func TrafficNames() []string {
	out := make([]string, 0, len(traffics))
	for n := range traffics {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// planner is what a traffic generator emits through: the node count, the
// phase parameters, the scenario's deterministic RNG, and emit. It
// accumulates the phase plan.
type planner struct {
	nodes int
	sc    *Scenario
	spec  *phaseSpec
	rng   *sim.RNG
	pp    *phasePlan
	err   error
}

// emit plans one burst from src to dst: an element drawn from the
// phase mix and burst argument words drawn from the RNG, exactly one
// weighted-choice draw plus one (or two, with Arg1Random) word draws
// per message.
func (p *planner) emit(src, dst int) {
	if p.err == nil {
		if src < 0 || src >= p.nodes {
			p.err = &ScenarioError{Field: p.spec.at("Traffic"), Reason: fmt.Sprintf("emit from node %d of %d", src, p.nodes)}
		} else if dst < 0 || dst >= p.nodes {
			p.err = &ScenarioError{Field: p.spec.at("Traffic"), Reason: fmt.Sprintf("emit to node %d of %d", dst, p.nodes)}
		}
	}
	if p.err != nil {
		return
	}
	m := p.pickMix()
	args := p.mkArgs()
	p.pp.bursts[src] = append(p.pp.bursts[src], burst{dst: dst, mix: m, args: args, local: m.Local})
	p.pp.sent[dst] += p.sc.Burst
	p.pp.total += p.sc.Burst
}

// pickMix draws one weighted element choice.
func (p *planner) pickMix() ElementMix {
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
func (p *planner) mkArgs() [][2]uint64 {
	args := make([][2]uint64, p.sc.Burst)
	for i := range args {
		args[i] = [2]uint64{p.rng.Uint64()%30000 + 1, 0}
		if p.spec.arg1Random {
			args[i][1] = p.rng.Uint64()%30000 + 1
		}
	}
	return args
}

// setHotNode records the phase's skew target for Result.HotNode.
func (p *planner) setHotNode(node int) {
	if p.err == nil && (node < 0 || node >= p.nodes) {
		p.err = &ScenarioError{Field: p.spec.at("Traffic"), Reason: fmt.Sprintf("hot node %d of %d", node, p.nodes)}
		return
	}
	p.pp.hotNode = node
}

// swapAtHalf plans the mid-phase remote-linking dynamic update: once
// node has executed half the messages this phase plans for it, the RIED
// elements of the named app are re-installed on it (replacing name
// bindings) and every channel into it re-runs the namespace exchange —
// while traffic is still in flight. In-flight Func handles re-bind on
// their next call.
func (p *planner) swapAtHalf(node int, app string) {
	if p.err == nil && (node < 0 || node >= p.nodes) {
		p.err = &ScenarioError{Field: p.spec.at("Traffic"), Reason: fmt.Sprintf("swap node %d of %d", node, p.nodes)}
		return
	}
	p.pp.swapNode, p.pp.swapApp = node, app
}

// genFanout: node 0 broadcasts bursts to every other node, round-robin.
func genFanout(p *planner) {
	for r := 0; r < p.spec.rounds; r++ {
		for dst := 1; dst < p.nodes; dst++ {
			p.emit(0, dst)
		}
	}
}

// genAllToAll: every node bursts to every other node.
func genAllToAll(p *planner) {
	for src := 0; src < p.nodes; src++ {
		for r := 0; r < p.spec.rounds; r++ {
			for dst := 0; dst < p.nodes; dst++ {
				if dst != src {
					p.emit(src, dst)
				}
			}
		}
	}
}

// hotSkew is the probability a hotspot burst targets the hot node.
const hotSkew = 0.8

// genHotspot: skewed traffic onto one hot node, with the mid-phase RIED
// hot-swap planned at half the hot node's traffic (unless the scenario
// disables it).
func genHotspot(p *planner) {
	sc := p.sc
	rng := p.rng
	hot := rng.Intn(p.nodes)
	p.setHotNode(hot)
	for src := 0; src < p.nodes; src++ {
		if src == hot {
			continue
		}
		for r := 0; r < p.spec.rounds*(p.nodes-1); r++ {
			dst := hot
			// Background traffic needs a node that is neither the sender
			// nor the hot node; with 2 nodes none exists and every burst
			// goes hot.
			if p.nodes > 2 && !rng.Bernoulli(hotSkew) {
				for {
					dst = rng.Intn(p.nodes)
					if dst != src && dst != hot {
						break
					}
				}
			}
			p.emit(src, dst)
		}
	}
	if !sc.DisableSwap {
		p.swapAtHalf(hot, "tcbench")
	}
}
