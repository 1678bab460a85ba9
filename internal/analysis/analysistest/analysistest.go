// Package analysistest runs analyzers over fixture packages and checks
// their diagnostics against `// want "regex"` expectations, mirroring
// golang.org/x/tools/go/analysis/analysistest (which the container
// cannot vendor) closely enough that fixtures would port unchanged.
//
// A fixture is a directory of .go files under testdata/, loaded with a
// caller-chosen synthetic import path (so a fixture can opt into
// path-scoped rules like detsource's simulation-package predicate). An
// expectation is a comment of the form
//
//	expr // want "regex" "another regex"
//
// each regex must match the "analyzer: message" rendering of a distinct
// diagnostic reported on that exact line; diagnostics without a
// matching want, and wants without a matching diagnostic, fail the
// test. Allow-directive filtering and hygiene run exactly as in
// cmd/tclint, so suppression and staleness behavior is pinned by the
// same fixtures.
package analysistest

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"twochains/internal/analysis"
)

// wantRe matches the expectation tail of a comment; each pattern is a
// Go string literal, double- or back-quoted (backquotes avoid
// double-escaping regex metacharacters).
const wantLit = `"(?:[^"\\]|\\.)*"` + "|`[^`]*`"

var wantRe = regexp.MustCompile(`// want((?:\s+(?:` + wantLit + `))+)\s*$`)

var quotedRe = regexp.MustCompile(wantLit)

type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// Run loads the fixture directory as pkgPath, applies the analyzers
// (with allow filtering and directive hygiene), and reports every
// mismatch between diagnostics and // want expectations through t.
//
//tclint:allow deadexport the fixture tests of internal/analysis are its only callers, by design
func Run(t *testing.T, loader *analysis.Loader, dir, pkgPath string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	if loader == nil {
		loader = analysis.NewLoader()
	}
	pkg, err := loader.LoadDir(dir, pkgPath)
	if err != nil {
		t.Fatalf("load fixture %s: %v", dir, err)
	}
	diags, err := analysis.Run([]*analysis.Package{pkg}, analyzers)
	if err != nil {
		t.Fatalf("run analyzers on %s: %v", dir, err)
	}

	expects, err := collectWants(pkg)
	if err != nil {
		t.Fatalf("parse // want comments in %s: %v", dir, err)
	}

	for _, d := range diags {
		rendered := d.Analyzer + ": " + d.Message
		if e := matchWant(expects, d.Pos.Filename, d.Pos.Line, rendered); e != nil {
			e.matched = true
			continue
		}
		t.Errorf("unexpected diagnostic: %s", d.String())
	}
	for _, e := range expects {
		if !e.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", e.file, e.line, e.pattern)
		}
	}
}

func matchWant(expects []*expectation, file string, line int, rendered string) *expectation {
	for _, e := range expects {
		if !e.matched && e.file == file && e.line == line && e.pattern.MatchString(rendered) {
			return e
		}
	}
	return nil
}

func collectWants(pkg *analysis.Package) ([]*expectation, error) {
	var out []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					if strings.Contains(c.Text, "// want") {
						return nil, fmt.Errorf("%s: malformed want comment %q", pkg.Fset.Position(c.Slash), c.Text)
					}
					continue
				}
				pos := pkg.Fset.Position(c.Slash)
				for _, q := range quotedRe.FindAllString(m[1], -1) {
					lit, err := strconv.Unquote(q)
					if err != nil {
						return nil, fmt.Errorf("%s: bad want literal %s: %w", pos, q, err)
					}
					re, err := regexp.Compile(lit)
					if err != nil {
						return nil, fmt.Errorf("%s: bad want regex %q: %w", pos, lit, err)
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
				}
			}
		}
	}
	return out, nil
}
