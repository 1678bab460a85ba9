package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// An allowDirective is one parsed `//tclint:allow <analyzer> <reason>`
// comment. It suppresses diagnostics of the named analyzer on its own
// line (trailing form) or on the line below (preceding form) in the
// same file, and it must earn its keep: a directive that suppresses
// nothing on a full run is stale and reported as a lint error, so
// escape hatches cannot outlive the code they excused.
type allowDirective struct {
	pos      token.Position
	analyzer string
	reason   string
	used     bool
}

const allowPrefix = "tclint:allow"

type allowSet struct {
	directives []*allowDirective
	// byKey indexes file:line -> directives whose suppression window
	// covers that line.
	byKey map[string][]*allowDirective
}

func allowKey(file string, line int) string {
	return fmt.Sprintf("%s:%d", file, line)
}

// collectAllows parses every //tclint:allow directive in the package.
func collectAllows(pkg *Package) *allowSet {
	as := &allowSet{byKey: make(map[string][]*allowDirective)}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, allowPrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, allowPrefix))
				// A nested // starts a comment-within-the-comment (e.g.
				// a fixture's // want expectation); it is not reason text.
				rest, _, _ = strings.Cut(rest, "//")
				rest = strings.TrimSpace(rest)
				name, reason, _ := strings.Cut(rest, " ")
				d := &allowDirective{
					pos:      pkg.Fset.Position(c.Slash),
					analyzer: name,
					reason:   strings.TrimSpace(reason),
				}
				as.directives = append(as.directives, d)
				// The directive covers its own line (trailing comment)
				// and the next line (comment above the statement).
				as.byKey[allowKey(d.pos.Filename, d.pos.Line)] = append(as.byKey[allowKey(d.pos.Filename, d.pos.Line)], d)
				as.byKey[allowKey(d.pos.Filename, d.pos.Line+1)] = append(as.byKey[allowKey(d.pos.Filename, d.pos.Line+1)], d)
			}
		}
	}
	return as
}

// suppress reports whether a directive covers d, marking the directive
// used; one on d's own line wins over one on the line above, so each of
// a run of trailing directives waives its own line. Malformed directives
// (unknown analyzer, empty reason) never suppress — they fail hygiene
// instead, so a typo cannot silently waive a contract.
func (as *allowSet) suppress(d Diagnostic) bool {
	var match *allowDirective
	for _, dir := range as.byKey[allowKey(d.Pos.Filename, d.Pos.Line)] {
		if dir.analyzer == d.Analyzer && dir.reason != "" && knownAnalyzer(dir.analyzer) &&
			(match == nil || dir.pos.Line == d.Pos.Line) {
			match = dir
		}
	}
	if match != nil {
		match.used = true
	}
	return match != nil
}

// hygiene returns the directive-quality diagnostics: unknown analyzer
// names and missing reasons always fail; a well-formed directive that
// suppressed nothing fails as stale when its analyzer was part of this
// run (a -run subset cannot prove staleness for deselected analyzers).
func (as *allowSet) hygiene(ran map[string]bool) []Diagnostic {
	var out []Diagnostic
	report := func(dir *allowDirective, msg string) {
		out = append(out, Diagnostic{
			Pos:      dir.pos,
			Analyzer: "tclint",
			Message:  msg,
		})
	}
	sort.Slice(as.directives, func(i, j int) bool {
		a, b := as.directives[i].pos, as.directives[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	for _, dir := range as.directives {
		switch {
		case dir.analyzer == "":
			report(dir, "malformed //tclint:allow: missing analyzer name")
		case !knownAnalyzer(dir.analyzer):
			report(dir, fmt.Sprintf("unknown analyzer %q in //tclint:allow (known: %s)", dir.analyzer, knownNames()))
		case dir.reason == "":
			report(dir, fmt.Sprintf("//tclint:allow %s needs a reason", dir.analyzer))
		case !dir.used && ran[dir.analyzer]:
			report(dir, fmt.Sprintf("stale //tclint:allow: no %s diagnostic here to suppress", dir.analyzer))
		}
	}
	return out
}

func knownNames() string {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
	}
	return strings.Join(names, ", ")
}
