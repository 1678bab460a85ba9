package workload

import (
	"fmt"
	"math"
	"strconv"

	"twochains/internal/core"
	"twochains/internal/fabric"
	"twochains/internal/mailbox"
	"twochains/internal/tcapp"
)

// ScenarioError is the typed validation error of the scenario surface:
// Field names the offending field (with phase/mix indices when it lives
// inside a composite, e.g. "Phases[1].Mix[0].Weight") and Reason says
// what is wrong with it. Every plan-building failure in Run is reported
// this way, so drivers can switch on the field instead of parsing
// message strings.
type ScenarioError struct {
	Field  string
	Reason string
}

func (e *ScenarioError) Error() string {
	return fmt.Sprintf("workload: invalid scenario: %s: %s", e.Field, e.Reason)
}

// Payload and frame bounds. MaxPayloadBytes keeps a single frame well
// inside a node's mailbox region; maxFrameBytes is the sanity ceiling
// for the derived frame size (payload + the largest shipped jam image +
// headers).
const (
	MaxPayloadBytes = 1 << 20
	maxFrameBytes   = 1 << 22
)

// Validate checks the scenario without building anything: field
// ranges, membership of traffic shapes and packages in their fixed
// tables, phase composition. It returns nil or a *ScenarioError. Element
// existence within a package is only checkable after the package
// compiles, so it is verified by Run (still as a typed *ScenarioError),
// not here. Run validates implicitly; Validate exists so
// scenario-composing code can fail fast.
func (sc *Scenario) Validate() error {
	if err := sc.validateScalars(); err != nil {
		return err
	}
	_, err := sc.resolveLanes()
	return err
}

// validateScalars checks the phase-independent scenario fields.
func (sc *Scenario) validateScalars() error {
	if sc.Nodes < 2 {
		return &ScenarioError{Field: "Nodes", Reason: fmt.Sprintf("needs >= 2 nodes, have %d", sc.Nodes)}
	}
	if sc.Shards < 0 {
		return &ScenarioError{Field: "Shards", Reason: fmt.Sprintf("negative shard count %d", sc.Shards)}
	}
	if sc.PayloadBytes < 0 {
		return &ScenarioError{Field: "PayloadBytes", Reason: fmt.Sprintf("negative payload %d", sc.PayloadBytes)}
	}
	if sc.PayloadBytes > MaxPayloadBytes {
		return &ScenarioError{Field: "PayloadBytes",
			Reason: fmt.Sprintf("payload %d exceeds the %d-byte frame budget", sc.PayloadBytes, MaxPayloadBytes)}
	}
	if sc.Burst < 1 {
		return &ScenarioError{Field: "Burst", Reason: fmt.Sprintf("must be >= 1, have %d", sc.Burst)}
	}
	if sc.Backend == "chaos" && sc.Chaos == nil {
		return &ScenarioError{Field: "Backend",
			Reason: `the "chaos" backend is configured through Scenario.Chaos (it wraps another backend)`}
	}
	if c := sc.Chaos; c != nil {
		if c.MinDelay < 0 || c.MaxDelay < c.MinDelay {
			return &ScenarioError{Field: "Chaos.MinDelay",
				Reason: fmt.Sprintf("need 0 <= MinDelay <= MaxDelay, have [%v, %v]", c.MinDelay, c.MaxDelay)}
		}
		if c.MaxDelay > fabric.MaxChaosDelay {
			return &ScenarioError{Field: "Chaos.MaxDelay",
				Reason: fmt.Sprintf("%v exceeds the %v perturbation bound (delays past one base put latency would reorder staged payloads)", c.MaxDelay, fabric.MaxChaosDelay)}
		}
	}
	return nil
}

// positiveFinite and nonNegFinite check a scenario float. NaN fails
// every comparison and +Inf passes a sign check, and converting either
// to an integer gives a different value on each architecture, so both
// are refused.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

func nonNegFinite(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// phaseSpec is one phase with every scenario-level default applied.
type phaseSpec struct {
	name       string
	traffic    string
	rounds     int
	mix        []ElementMix
	wsum       int
	arrival    Arrival
	swap       *Swap
	fail       []Fail
	rejoin     []Rejoin
	arg1Random bool
	// fieldPrefix locates this phase in ScenarioError fields: "" for the
	// implicit phase of a phaseless scenario, "Phases[i]." otherwise.
	fieldPrefix string
}

// at names a field of this phase for error reporting.
func (spec *phaseSpec) at(field string) string { return spec.fieldPrefix + field }

// resolvePhases applies defaulting (a phaseless scenario is one closed-
// loop phase of the scenario pattern) and validates every resolved
// field. The returned specs are what Run plans from.
func (sc *Scenario) resolvePhases() ([]phaseSpec, error) {
	phases := sc.Phases
	if len(phases) == 0 {
		phases = []Phase{{}}
	}
	specs := make([]phaseSpec, len(phases))
	// downSet tracks which nodes are failed at each phase boundary, so
	// Fail/Rejoin sequencing errors (rejoining a live node, re-failing a
	// dead one) are static scenario errors, not runtime surprises.
	downSet := map[int]bool{}
	for i, ph := range phases {
		spec := phaseSpec{
			name:       ph.Name,
			traffic:    ph.Traffic,
			rounds:     ph.Rounds,
			mix:        ph.Mix,
			arg1Random: ph.Arg1Random,
			swap:       ph.Swap,
			fail:       ph.Fail,
			rejoin:     ph.Rejoin,
		}
		if len(sc.Phases) > 0 {
			spec.fieldPrefix = "Phases[" + strconv.Itoa(i) + "]."
		}
		at := spec.at
		if spec.name == "" {
			spec.name = "phase" + strconv.Itoa(i)
		}
		trafficInherited := spec.traffic == ""
		if trafficInherited {
			spec.traffic = string(sc.Pattern)
		}
		if _, ok := traffics[spec.traffic]; !ok {
			// An inherited unknown shape is the scenario Pattern's fault,
			// not the (empty) phase field's.
			field := at("Traffic")
			if trafficInherited {
				field = "Pattern"
			}
			return nil, &ScenarioError{Field: field,
				Reason: fmt.Sprintf("unknown traffic %q (registered: %v)", spec.traffic, TrafficNames())}
		}
		// When a phase inherits the scenario-level default, blame the
		// field the user actually set.
		roundsField := at("Rounds")
		if spec.rounds == 0 {
			spec.rounds, roundsField = sc.Rounds, "Rounds"
		}
		if spec.rounds < 1 {
			return nil, &ScenarioError{Field: roundsField,
				Reason: fmt.Sprintf("must be >= 1, have %d", spec.rounds)}
		}
		if len(spec.mix) == 0 {
			spec.mix = sc.Mix
		}
		if len(spec.mix) == 0 {
			spec.mix = DefaultMix()
		}
		// The spec owns its mix: defaulting below must not write through
		// to the caller's Scenario/Phase slices.
		spec.mix = append([]ElementMix(nil), spec.mix...)
		for j := range spec.mix {
			m := &spec.mix[j]
			if m.Pkg == "" {
				m.Pkg = DefaultPkg
			}
			// Fail fast on unknown packages; element existence is
			// only checkable after the package builds (frameSizeFor).
			if _, ok := tcapp.Lookup(m.Pkg); !ok {
				return nil, &ScenarioError{Field: at(fmt.Sprintf("Mix[%d].Pkg", j)),
					Reason: fmt.Sprintf("unknown app %q (registered: %v)", m.Pkg, tcapp.Names())}
			}
			if m.Weight < 0 {
				return nil, &ScenarioError{Field: at(fmt.Sprintf("Mix[%d].Weight", j)),
					Reason: fmt.Sprintf("element %q has negative weight %d", m.Elem, m.Weight)}
			}
			if m.Weight > math.MaxInt-spec.wsum {
				return nil, &ScenarioError{Field: at(fmt.Sprintf("Mix[%d].Weight", j)),
					Reason: fmt.Sprintf("element %q's weight %d takes the mix's sum past %d", m.Elem, m.Weight, math.MaxInt)}
			}
			spec.wsum += m.Weight
		}
		if spec.wsum <= 0 {
			return nil, &ScenarioError{Field: at("Mix"), Reason: "element mix has no positive weight"}
		}
		if ph.Arrival != nil {
			spec.arrival = *ph.Arrival
		}
		ak := arrivalSpecFor(spec.arrival.Kind)
		if ak == nil {
			return nil, &ScenarioError{Field: at("Arrival.Kind"),
				Reason: fmt.Sprintf("unknown arrival kind %d (registered: %v)", spec.arrival.Kind, ArrivalKindNames())}
		}
		if ak.validate != nil {
			if err := ak.validate(&spec.arrival, at); err != nil {
				return nil, err
			}
		}
		// Rejoins happen at phase open, fails At later in the phase: a
		// phase may legally rejoin a node and fail it again.
		for j, rj := range spec.rejoin {
			if rj.Node < 0 || rj.Node >= sc.Nodes {
				return nil, &ScenarioError{Field: at(fmt.Sprintf("Rejoin[%d].Node", j)),
					Reason: fmt.Sprintf("node %d out of range (%d nodes)", rj.Node, sc.Nodes)}
			}
			if !downSet[rj.Node] {
				return nil, &ScenarioError{Field: at(fmt.Sprintf("Rejoin[%d].Node", j)),
					Reason: fmt.Sprintf("node %d is not failed at this phase", rj.Node)}
			}
			delete(downSet, rj.Node)
		}
		for j, fl := range spec.fail {
			if fl.Node < 0 || fl.Node >= sc.Nodes {
				return nil, &ScenarioError{Field: at(fmt.Sprintf("Fail[%d].Node", j)),
					Reason: fmt.Sprintf("node %d out of range (%d nodes)", fl.Node, sc.Nodes)}
			}
			if fl.At < 0 {
				return nil, &ScenarioError{Field: at(fmt.Sprintf("Fail[%d].At", j)),
					Reason: fmt.Sprintf("negative failure offset %v", fl.At)}
			}
			if downSet[fl.Node] {
				return nil, &ScenarioError{Field: at(fmt.Sprintf("Fail[%d].Node", j)),
					Reason: fmt.Sprintf("node %d is already failed", fl.Node)}
			}
			downSet[fl.Node] = true
		}
		if spec.swap != nil {
			if spec.swap.Node < 0 || spec.swap.Node >= sc.Nodes {
				return nil, &ScenarioError{Field: at("Swap.Node"),
					Reason: fmt.Sprintf("node %d out of range (%d nodes)", spec.swap.Node, sc.Nodes)}
			}
			// Normalize the default once: the spec owns a copy, and every
			// downstream consumer (package building, the swap itself)
			// reads the resolved app name.
			sw := *spec.swap
			if sw.App == "" {
				sw.App = DefaultPkg
			}
			if _, ok := tcapp.Lookup(sw.App); !ok {
				return nil, &ScenarioError{Field: at("Swap.App"),
					Reason: fmt.Sprintf("unknown app %q (registered: %v)", sw.App, tcapp.Names())}
			}
			spec.swap = &sw
		}
		specs[i] = spec
	}
	return specs, nil
}

// packagesFor builds every application package the resolved phases
// reference, keyed by name.
func packagesFor(specs []phaseSpec) (map[string]*core.Package, error) {
	pkgs := map[string]*core.Package{}
	addApp := func(name string) error {
		if _, ok := pkgs[name]; ok {
			return nil
		}
		pkg, err := tcapp.Build(name)
		if err != nil {
			return err
		}
		pkgs[name] = pkg
		return nil
	}
	// Field names are built on the error path only: a valid scenario's
	// run allocates none (TestWorkBudgets counts every allocation).
	for i := range specs {
		spec := &specs[i]
		for j, m := range spec.mix {
			if err := addApp(m.Pkg); err != nil {
				return nil, &ScenarioError{Field: spec.at(fmt.Sprintf("Mix[%d].Pkg", j)), Reason: err.Error()}
			}
		}
		if spec.swap != nil {
			if err := addApp(spec.swap.App); err != nil {
				return nil, &ScenarioError{Field: spec.at("Swap.App"), Reason: err.Error()}
			}
		}
	}
	return pkgs, nil
}

// frameSizeFor sizes the shared mailbox geometry to the largest message
// any phase's mix can produce with the given payload.
func frameSizeFor(pkgs map[string]*core.Package, specs []phaseSpec, payload int) (int, error) {
	if payload < 0 || payload > MaxPayloadBytes {
		return 0, &ScenarioError{Field: "PayloadBytes",
			Reason: fmt.Sprintf("payload %d outside [0, %d]", payload, MaxPayloadBytes)}
	}
	max := 0
	seen := false
	for i := range specs {
		spec := &specs[i]
		for j, m := range spec.mix {
			seen = true
			pkg, ok := pkgs[m.Pkg]
			if !ok {
				return 0, &ScenarioError{Field: spec.at(fmt.Sprintf("Mix[%d].Pkg", j)),
					Reason: fmt.Sprintf("package %q not built", m.Pkg)}
			}
			// Local and injected entries both need an existing jam — a
			// Local call invokes the receiver's library copy by ID.
			elem, ok := pkg.Element(m.Elem)
			if !ok || elem.Kind != core.ElemJam {
				return 0, &ScenarioError{Field: spec.at(fmt.Sprintf("Mix[%d].Elem", j)),
					Reason: fmt.Sprintf("no jam %q in package %q", m.Elem, m.Pkg)}
			}
			var n int
			if m.Local {
				n = mailbox.PackLocal(1, 1, [2]uint64{}, make([]byte, payload)).WireLen()
			} else {
				var err error
				if n, err = core.InjectedFrameLen(elem, payload); err != nil {
					return 0, &ScenarioError{Field: spec.at(fmt.Sprintf("Mix[%d].Elem", j)), Reason: err.Error()}
				}
			}
			if n > max {
				max = n
			}
		}
	}
	if !seen {
		return 0, &ScenarioError{Field: "Mix", Reason: "no phase has any mix entries"}
	}
	if max <= 0 || max > maxFrameBytes {
		return 0, &ScenarioError{Field: "PayloadBytes",
			Reason: fmt.Sprintf("derived frame size %d outside (0, %d]", max, maxFrameBytes)}
	}
	return max, nil
}
