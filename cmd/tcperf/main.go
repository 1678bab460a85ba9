// Command tcperf is the Two-Chains performance tester: it regenerates the
// tables behind every figure in the paper's evaluation (§VII) plus the
// design-choice ablations, on the simulated testbed.
//
// Usage:
//
//	tcperf -list
//	tcperf -e fig9 [-scale 1.0]
//	tcperf -e all [-scale 0.5] [-csv]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"twochains/internal/perf"
)

func main() {
	var (
		expName = flag.String("e", "", "experiment to run (see -list), or 'all'")
		scale   = flag.Float64("scale", 1.0, "iteration-count multiplier")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		list    = flag.Bool("list", false, "list available experiments")
	)
	flag.Parse()
	if !(*scale > 0) || math.IsInf(*scale, 1) {
		fmt.Fprintf(os.Stderr, "tcperf: -scale %v: the iteration multiplier must be positive and finite\n", *scale)
		os.Exit(2)
	}

	if *list || *expName == "" {
		fmt.Println("available experiments:")
		for _, e := range perf.Experiments() {
			fmt.Printf("  %-18s %s\n", e.Name, e.Title)
		}
		if *expName == "" && !*list {
			os.Exit(2)
		}
		return
	}

	opts := perf.Options{Scale: *scale}
	run := func(e perf.Experiment) error {
		start := time.Now()
		tab, err := e.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		if *csv {
			tab.FprintCSV(os.Stdout)
		} else {
			tab.Fprint(os.Stdout)
			fmt.Printf("(%s in %.1fs)\n\n", e.Name, time.Since(start).Seconds())
		}
		return nil
	}

	if *expName == "all" {
		for _, e := range perf.Experiments() {
			if err := run(e); err != nil {
				fmt.Fprintln(os.Stderr, "tcperf:", err)
				os.Exit(1)
			}
		}
		return
	}
	e, ok := perf.Lookup(*expName)
	if !ok {
		fmt.Fprintf(os.Stderr, "tcperf: unknown experiment %q (try -list)\n", *expName)
		os.Exit(2)
	}
	if err := run(e); err != nil {
		fmt.Fprintln(os.Stderr, "tcperf:", err)
		os.Exit(1)
	}
}
