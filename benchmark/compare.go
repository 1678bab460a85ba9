package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// specMetric is one end-to-end metric of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the program reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// runsOf indexes a document's traced or untraced runs by workload.
func runsOf(doc *document, traced bool) map[string]*detail {
	m := map[string]*detail{}
	for i := range doc.Runs {
		if doc.Runs[i].Traced == traced {
			m[doc.Runs[i].Workload] = &doc.Runs[i]
		}
	}
	return m
}

// runCompare judges new against old with each end-to-end metric's
// direction and bound: one row per workload and metric with both values
// and the ratio new/old. A row is "unresolved" when either side's
// recorded repetition spread exceeds the bound, so the difference
// cannot be told from noise. It exits 1 on a regression or a failed
// output check, 2 when the two documents are not comparable.
func runCompare(specPath, oldPath, newPath string, stdout, stderr io.Writer) int {
	var spec benchSpec
	var oldDoc, newDoc document
	for _, in := range []struct {
		path string
		v    any
	}{{specPath, &spec}, {oldPath, &oldDoc}, {newPath, &newDoc}} {
		if err := readJSON(in.path, in.v); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 2
		}
	}
	a, b := oldDoc.Host, newDoc.Host
	if a.NProc != b.NProc || a.GOMAXPROCS != b.GOMAXPROCS || a.GoVersion != b.GoVersion || a.GOGC != b.GOGC || a.GODEBUG != b.GODEBUG {
		fmt.Fprintf(stderr, "benchmark: host shapes differ (nproc %d/%d, GOMAXPROCS %d/%d, %s/%s, GOGC %s/%s, GODEBUG %q/%q): not comparable\n",
			a.NProc, b.NProc, a.GOMAXPROCS, b.GOMAXPROCS, a.GoVersion, b.GoVersion, a.GOGC, b.GOGC, a.GODEBUG, b.GODEBUG)
		return 2
	}
	if oldDoc.Seed != newDoc.Seed || oldDoc.Seconds != newDoc.Seconds {
		fmt.Fprintf(stderr, "benchmark: seeds or run lengths differ (%s/%s, %gs/%gs): not comparable\n",
			oldDoc.Seed, newDoc.Seed, oldDoc.Seconds, newDoc.Seconds)
		return 2
	}
	olds, news := runsOf(&oldDoc, false), runsOf(&newDoc, false)
	oldTr, newTr := runsOf(&oldDoc, true), runsOf(&newDoc, true)
	status := 0
	fmt.Fprintf(stdout, "%-12s %-22s %14s %14s %9s %6s  %s\n", "workload", "metric", "old", "new", "new/old", "bound", "verdict")
	for _, wl := range spec.Workloads {
		o, n := olds[wl.Name], news[wl.Name]
		if o == nil || n == nil {
			fmt.Fprintf(stdout, "%-12s missing from a document\n", wl.Name)
			status = 1
			continue
		}
		if !o.Result.Correct || !n.Result.Correct {
			fmt.Fprintf(stdout, "%-12s output check failed (old correct=%v, new correct=%v)\n", wl.Name, o.Result.Correct, n.Result.Correct)
			status = 1
		}
		if o.Digest != n.Digest {
			fmt.Fprintf(stdout, "%-12s digest changed %s -> %s: the model changed\n", wl.Name, o.Digest, n.Digest)
			status = 1
		}
		if ot, nt := oldTr[wl.Name], newTr[wl.Name]; ot != nil && nt != nil {
			for _, name := range exactMetrics {
				if ov, nv := ot.Result.Metrics[name].Value, nt.Result.Metrics[name].Value; ov != nv {
					fmt.Fprintf(stdout, "%-12s %-22s %14.6g %14.6g  exact metric changed: the model changed\n", wl.Name, name, ov, nv)
					status = 1
				}
			}
		}
		for _, m := range spec.EndToEnd {
			ov, nv := o.Result.Metrics[m.Name].Value, n.Result.Metrics[m.Name].Value
			if ov == 0 {
				fmt.Fprintf(stdout, "%-12s %-22s old value is 0: no base for a ratio\n", wl.Name, m.Name)
				status = 1
				continue
			}
			ratio := nv / ov
			worse := ratio - 1 // lower is better
			if m.Better == "higher" {
				worse = 1 - ratio
			}
			verdict := "ok"
			switch {
			case worse > m.Bound && (o.Spread > m.Bound || n.Spread > m.Bound) && m.Name != "setup_s":
				verdict = "unresolved (spread exceeds bound)"
			case worse > m.Bound:
				verdict = "REGRESSION"
				status = 1
			case worse < -m.Bound:
				verdict = "better"
			}
			if o.Noisy || n.Noisy {
				verdict += " [noisy set]"
			}
			fmt.Fprintf(stdout, "%-12s %-22s %14.6g %14.6g %9.4f %6.2f  %s\n", wl.Name, m.Name, ov, nv, ratio, m.Bound, verdict)
		}
	}
	return status
}
