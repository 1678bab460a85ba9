package workload

import (
	"errors"
	"strings"
	"testing"

	"twochains/internal/core"
)

// wantScenarioError runs the scenario and requires a *ScenarioError on
// the named field.
func wantScenarioError(t *testing.T, sc Scenario, field string) *ScenarioError {
	t.Helper()
	_, err := Run(sc)
	if err == nil {
		t.Fatalf("scenario accepted, want error on %s", field)
	}
	var serr *ScenarioError
	if !errors.As(err, &serr) {
		t.Fatalf("error %T (%v), want *ScenarioError", err, err)
	}
	if serr.Field != field {
		t.Fatalf("error field %q (%v), want %q", serr.Field, serr, field)
	}
	return serr
}

// TestValidateTypedErrors: every class of degenerate scenario surfaces
// as a *ScenarioError naming the offending field.
func TestValidateTypedErrors(t *testing.T) {
	base := func() Scenario { return DefaultScenario(Fanout, 4) }

	sc := base()
	sc.Nodes = 1
	wantScenarioError(t, sc, "Nodes")

	sc = base()
	sc.Pattern = "zigzag"
	wantScenarioError(t, sc, "Pattern")

	sc = base()
	sc.Burst = 0
	wantScenarioError(t, sc, "Burst")

	sc = base()
	sc.Rounds = -1
	wantScenarioError(t, sc, "Rounds")

	sc = base()
	sc.PayloadBytes = -5
	wantScenarioError(t, sc, "PayloadBytes")

	sc = base()
	sc.PayloadBytes = MaxPayloadBytes + 1
	wantScenarioError(t, sc, "PayloadBytes")

	sc = base()
	sc.HotSkew = 1.5
	wantScenarioError(t, sc, "HotSkew")

	sc = base()
	sc.Mix = []ElementMix{{Elem: "jam_sssum", Weight: -1}}
	wantScenarioError(t, sc, "Mix[0].Weight")

	sc = base()
	sc.Mix = []ElementMix{{Elem: "jam_sssum", Weight: 0}}
	wantScenarioError(t, sc, "Mix")

	sc = base()
	sc.Mix = []ElementMix{{Elem: "jam_sssum", Weight: 1 << 62}, {Elem: "jam_iput", Weight: 1 << 62},
		{Elem: "jam_sssum", Weight: 1 << 62}, {Elem: "jam_iput", Weight: 1 << 62}, {Elem: "jam_sssum", Weight: 1}}
	wantScenarioError(t, sc, "Mix[1].Weight")

	sc = base()
	sc.Mix = []ElementMix{{Elem: "jam_nonexistent", Weight: 1}}
	wantScenarioError(t, sc, "Mix[0].Elem")

	sc = base()
	sc.Mix = []ElementMix{{Pkg: "no-such-app", Elem: "jam_x", Weight: 1}}
	wantScenarioError(t, sc, "Mix[0].Pkg")

	sc = base()
	sc.Phases = []Phase{{Traffic: "zigzag"}}
	wantScenarioError(t, sc, "Phases[0].Traffic")

	sc = base()
	sc.Phases = []Phase{{}, {Burst: -2}}
	wantScenarioError(t, sc, "Phases[1].Burst")

	// A phase inheriting an invalid scenario-level default blames the
	// scenario field the user actually set, not the empty phase field.
	sc = base()
	sc.Rounds = -3
	sc.Phases = []Phase{{Name: "inherits"}}
	wantScenarioError(t, sc, "Rounds")

	sc = base()
	sc.Pattern = "zigzag"
	sc.Phases = []Phase{{Name: "inherits"}}
	wantScenarioError(t, sc, "Pattern")

	sc = base()
	sc.Phases = []Phase{{Arrival: &Arrival{Kind: Poisson}}}
	wantScenarioError(t, sc, "Phases[0].Arrival.RatePerSec")

	sc = base()
	sc.Phases = []Phase{{Arrival: &Arrival{Kind: 99}}}
	serr := wantScenarioError(t, sc, "Phases[0].Arrival.Kind")
	const wantReason = "unknown arrival kind 99 (registered: [closed-loop(0) poisson(1) mmpp(2) trace(3)])"
	if serr.Reason != wantReason {
		t.Fatalf("unknown-kind reason %q, want %q", serr.Reason, wantReason)
	}

	sc = base()
	sc.Phases = []Phase{{Swap: &Swap{Node: 9}}}
	wantScenarioError(t, sc, "Phases[0].Swap.Node")

	sc = base()
	sc.Phases = []Phase{{Swap: &Swap{Node: 1, App: "no-such-app"}}}
	wantScenarioError(t, sc, "Phases[0].Swap.App")

	sc = base()
	sc.Phases = []Phase{{Mix: []ElementMix{{Pkg: "kvstore", Elem: "jam_kv_put", Weight: 1}}}, {Mix: []ElementMix{{Elem: "jam_oops", Weight: 2}}}}
	wantScenarioError(t, sc, "Phases[1].Mix[0].Elem")
}

// TestValidateStandalone: Validate agrees with Run without building
// anything, and passes every stock scenario.
func TestValidateStandalone(t *testing.T) {
	for _, p := range Patterns() {
		sc := DefaultScenario(p, 8)
		if err := sc.Validate(); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
	for _, sc := range []Scenario{KVStoreScenario(8), MultiPhaseScenario(8)} {
		if err := sc.Validate(); err != nil {
			t.Errorf("composed scenario: %v", err)
		}
	}
	sc := DefaultScenario(Fanout, 0)
	err := sc.Validate()
	var serr *ScenarioError
	if !errors.As(err, &serr) || serr.Field != "Nodes" {
		t.Errorf("Validate() = %v, want ScenarioError on Nodes", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "Nodes") || !strings.Contains(msg, "invalid scenario") {
		t.Errorf("error text %q", msg)
	}
}

// frameSpecs resolves a one-phase spec set over the given mix for the
// frameSizeFor unit tests.
func frameSpecs(t *testing.T, mix []ElementMix) ([]phaseSpec, map[string]*core.Package) {
	t.Helper()
	sc := DefaultScenario(Fanout, 4)
	sc.Mix = mix
	specs, err := sc.resolvePhases()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := packagesFor(specs)
	if err != nil {
		t.Fatal(err)
	}
	return specs, pkgs
}

// TestFrameSizeForEdgeCases covers the satellite-task edge cases: empty
// mixes, unknown elements, and payload/frame overflow, all as typed
// errors.
func TestFrameSizeForEdgeCases(t *testing.T) {
	specs, pkgs := frameSpecs(t, DefaultMix())

	// Happy path: the frame covers the largest injected element.
	n, err := frameSizeFor(pkgs, specs, 64)
	if err != nil {
		t.Fatal(err)
	}
	iput, _ := pkgs["tcbench"].Element("jam_iput")
	if n < iput.Jam.ShippedSize()+64 {
		t.Fatalf("frame %d smaller than shipped image + payload", n)
	}

	// Payload outside bounds.
	if _, err := frameSizeFor(pkgs, specs, -1); !fieldIs(err, "PayloadBytes") {
		t.Errorf("negative payload: %v", err)
	}
	if _, err := frameSizeFor(pkgs, specs, MaxPayloadBytes+1); !fieldIs(err, "PayloadBytes") {
		t.Errorf("oversized payload: %v", err)
	}

	// No mix entries anywhere.
	empty := []phaseSpec{{mix: nil}}
	if _, err := frameSizeFor(pkgs, empty, 64); !fieldIs(err, "Mix") {
		t.Errorf("empty mix: %v", err)
	}

	// Unknown element in an otherwise valid package.
	bad := []phaseSpec{{mix: []ElementMix{{Pkg: "tcbench", Elem: "jam_missing", Weight: 1}}}}
	if _, err := frameSizeFor(pkgs, bad, 64); !fieldIs(err, "Mix[0].Elem") {
		t.Errorf("unknown element: %v", err)
	}

	// Package not in the built set.
	orphan := []phaseSpec{{mix: []ElementMix{{Pkg: "ghost", Elem: "jam_x", Weight: 1}}}}
	if _, err := frameSizeFor(pkgs, orphan, 64); !fieldIs(err, "Mix[0].Pkg") {
		t.Errorf("unbuilt package: %v", err)
	}

	// Local-only mixes size to the local frame, no jam lookup involved.
	specsLocal, pkgsLocal := frameSpecs(t, []ElementMix{{Elem: "jam_sssum", Weight: 1, Local: true}})
	ln, err := frameSizeFor(pkgsLocal, specsLocal, 64)
	if err != nil {
		t.Fatal(err)
	}
	if ln >= n {
		t.Errorf("local-only frame %d not smaller than injected frame %d", ln, n)
	}
}

func fieldIs(err error, field string) bool {
	var serr *ScenarioError
	return errors.As(err, &serr) && serr.Field == field
}
