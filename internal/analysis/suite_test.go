package analysis_test

import (
	"testing"

	"twochains/internal/analysis"
	"twochains/internal/analysis/analysistest"
)

// One loader for the whole suite: it type-checks each module package
// once, for whichever fixture (or the whole-tree test) imports it first.
var loader = analysis.NewLoader()

// Fixture packages claim synthetic import paths on purpose: detsource
// and the allow fixture opt into the simulation-package scope.
func TestScratchEscapeFixtures(t *testing.T) {
	analysistest.Run(t, loader, "testdata/scratchescape", "fixture/scratchescape", analysis.ScratchEscape)
}

func TestPoolOwnershipFixtures(t *testing.T) {
	analysistest.Run(t, loader, "testdata/poolownership", "fixture/poolownership", analysis.PoolOwnership)
}

func TestDetSourceFixtures(t *testing.T) {
	analysistest.Run(t, loader, "testdata/detsource", "twochains/internal/sim", analysis.DetSource)
}

// The deadexport fixture's path lies under internal/, where the rule
// applies; its own files are its only callers.
func TestDeadExportFixtures(t *testing.T) {
	analysistest.Run(t, loader, "testdata/deadexport", "fixture/internal/deadexport", analysis.DeadExport)
}

// The writeonly fixture's path lies under internal/, where the rule
// applies; its own files are its only readers.
func TestWriteOnlyFixtures(t *testing.T) {
	analysistest.Run(t, loader, "testdata/writeonly", "fixture/internal/writeonly", analysis.WriteOnly)
}

// The neverset fixture's path lies under internal/, where the rule
// applies; its own files are its only setters.
func TestNeverSetFixtures(t *testing.T) {
	analysistest.Run(t, loader, "testdata/neverset", "fixture/internal/neverset", analysis.NeverSet)
}

// The allow fixture runs under the full suite: staleness is defined
// against the set of analyzers that ran, and the fixture pins both a
// suppressed diagnostic and a stale directive for a second analyzer.
func TestAllowDirectiveFixtures(t *testing.T) {
	analysistest.Run(t, loader, "testdata/allow", "twochains/internal/sim/allowfix", analysis.All()...)
}

// TestSuiteRunsCleanOnTree is the acceptance gate in test form: the
// full suite over every package of this module reports nothing (make
// lint enforces the same via cmd/tclint).
func TestSuiteRunsCleanOnTree(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped under -short")
	}
	pkgs, err := loader.Load("twochains/...")
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	diags, err := analysis.Run(pkgs, analysis.All())
	if err != nil {
		t.Fatalf("run suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unexpected diagnostic on clean tree: %s", d.String())
	}
}
