// Package analysis is tclint's static-analysis suite: a small,
// self-contained go/analysis-style framework (stdlib go/ast + go/types
// only — the container has no module cache, so golang.org/x/tools is
// deliberately not a dependency) plus the six analyzers that
// machine-check the repo's documented ownership, determinism and deletion
// contracts:
//
//   - scratchescape — a *mailbox.Delivery callback argument or a
//     mem.View* slice must not outlive its callback/event (ROADMAP
//     "Pooling ownership rules").
//   - poolownership — no use of a *mailbox.Message after Send/SendBatch
//     hands it to the Sender; no touching a tc.Future after Release.
//   - detsource — the simulation packages draw no nondeterminism:
//     no wall clock, no global math/rand, no effectful map iteration,
//     no goroutines.
//   - deadexport — every exported name under internal/ has a caller in
//     a non-test file of the module (ROADMAP aim 2: every name needs a
//     caller or must go).
//   - writeonly — every field of a named struct type under internal/ is
//     read by a non-test file of the module (the same rule for fields:
//     a counter nobody reads goes, with its increments).
//   - neverset — every such field is set by a non-test file of the
//     module (an option only tests set is zero in every real run, so it
//     goes, with the code it gates).
//
// Violations that are legitimate for an owner (for example the mailbox
// receiver storing its own scratch record) are suppressed with a
// reasoned `//tclint:allow <analyzer> <reason>` directive on the same
// or preceding line; stale or malformed directives are themselves
// diagnostics (see allow.go).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one checker: a name (used in -run selection and
// allow directives), a one-line contract statement, and the Run hook.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Pass is one (analyzer, package) unit of work, mirroring
// golang.org/x/tools/go/analysis.Pass closely enough that the analyzers
// would port to the real framework mechanically.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	callers *callerSet
	report  func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one reported contract violation, positioned at the
// exact offending token.
type Diagnostic struct {
	Pos      token.Position `json:"-"`
	File     string         `json:"file"` //tclint:allow writeonly encoding/json reads it for tclint -json
	Line     int            `json:"line"` //tclint:allow writeonly encoding/json reads it for tclint -json
	Col      int            `json:"col"`  //tclint:allow writeonly encoding/json reads it for tclint -json
	Analyzer string         `json:"analyzer"`
	Message  string         `json:"message"`
}

// String renders the conventional file:line:col: analyzer: message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{ScratchEscape, PoolOwnership, DetSource, DeadExport, WriteOnly, NeverSet}
}

// Run applies the analyzers to each package, filters diagnostics
// through the package's //tclint:allow directives, and appends the
// directive-hygiene diagnostics (unknown analyzer, missing reason,
// stale allow). The result is sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, pkg := range pkgs {
		diags, err := runPackage(pkg, analyzers)
		if err != nil {
			return nil, err
		}
		out = append(out, diags...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

func runPackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	allows := collectAllows(pkg)
	var kept []Diagnostic
	for _, a := range analyzers {
		var raw []Diagnostic
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			callers:  pkg.callers,
			report:   func(d Diagnostic) { raw = append(raw, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
		for _, d := range raw {
			if allows.suppress(d) {
				continue
			}
			kept = append(kept, d)
		}
	}
	kept = append(kept, allows.hygiene(analyzerNames(analyzers))...)
	for i := range kept {
		kept[i].File = kept[i].Pos.Filename
		kept[i].Line = kept[i].Pos.Line
		kept[i].Col = kept[i].Pos.Column
	}
	return kept, nil
}

func analyzerNames(as []*Analyzer) map[string]bool {
	m := make(map[string]bool, len(as))
	for _, a := range as {
		m[a.Name] = true
	}
	return m
}

// knownAnalyzer reports whether name names a suite analyzer, regardless
// of the -run selection (an allow for a deselected analyzer is legal,
// just not staleness-checked on that run).
func knownAnalyzer(name string) bool {
	for _, a := range All() {
		if a.Name == name {
			return true
		}
	}
	return false
}

// pathString returns the import path of the package an object belongs
// to, or "" for builtins and the universe scope.
func pathString(pkg *types.Package) string {
	if pkg == nil {
		return ""
	}
	return pkg.Path()
}
