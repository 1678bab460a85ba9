// Command tclint is the multichecker for the repo's ownership,
// determinism and deletion contracts: it runs the five analyzers of the
// internal/analysis suite (scratchescape, poolownership, detsource,
// deadexport, writeonly) over the named packages and exits nonzero on
// any diagnostic. It type-checks the whole module either way, since
// deadexport and writeonly count callers and readers everywhere in it.
//
// Usage:
//
//	tclint [-run regex] [-json] [packages...]
//
// With no packages, ./... is checked. -run restricts the suite to
// analyzers whose name matches the regex (allow-directive staleness is
// then only checked for the selected analyzers); -json emits the
// diagnostics as a JSON array of {file, line, col, analyzer, message}
// objects instead of the file:line:col text form.
//
// Suppressions: a `//tclint:allow <analyzer> <reason>` comment on the
// offending line (or the line above) waives one analyzer there. The
// directive is itself linted — an unknown analyzer name, a missing
// reason, or a directive that no longer suppresses anything is an
// error, so stale escape hatches cannot accumulate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"

	"twochains/internal/analysis"
)

func main() {
	runPat := flag.String("run", "", "run only analyzers matching this regex")
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tclint [-run regex] [-json] [packages...]\n\nanalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	analyzers := analysis.All()
	if *runPat != "" {
		re, err := regexp.Compile(*runPat)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tclint: bad -run regex: %v\n", err)
			os.Exit(2)
		}
		var sel []*analysis.Analyzer
		for _, a := range analyzers {
			if re.MatchString(a.Name) {
				sel = append(sel, a)
			}
		}
		if len(sel) == 0 {
			fmt.Fprintf(os.Stderr, "tclint: -run %q matches no analyzer\n", *runPat)
			os.Exit(2)
		}
		analyzers = sel
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.NewLoader().Load(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tclint: %v\n", err)
		os.Exit(2)
	}

	diags, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tclint: %v\n", err)
		os.Exit(2)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(os.Stderr, "tclint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d.String())
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "tclint: %d diagnostic(s)\n", len(diags))
		}
		os.Exit(1)
	}
}
