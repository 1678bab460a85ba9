// Command benchjson converts `go test -bench` output into the
// machine-readable benchmark trajectory file that seeds the repo's perf
// history (BENCH_PR3.json and successors).
//
// It reads benchmark output on stdin, parses every benchmark line into
// {ns/op, bytes/op, allocs/op, custom metrics}, optionally merges a
// recorded baseline file, and emits one JSON document with a
// speedup-vs-baseline section so regressions (or claimed wins) are
// diffable in review. The output name comes from -o (stdout without
// it); the Makefile's bench-json target supplies the per-PR file name:
//
//	go test -run xxx -bench . -benchmem . | go run ./cmd/benchjson \
//	    -baseline bench/BASELINE_PR3.json -o BENCH_PR3.json
//
// With -smoke it becomes the CI regression gate instead: for every
// benchmark present both on stdin and in the -baseline file, the chosen
// -metric (default sim_inj_per_sec) must not fall more than -tol below
// the recorded value, or the exit status is non-zero:
//
//	go test -run xxx -bench BenchmarkMesh -benchtime 1x . | \
//	    go run ./cmd/benchjson -smoke -baseline BENCH_PR5.json -tol 0.25
//
// The built-in ns/op, B/op and allocs/op metrics are lower-is-better
// there: they must not rise above the recorded value by more than the
// band. ns/op is a host-clock number, so a baseline recorded on another
// host shape (GOMAXPROCS/NumCPU, stamped into every recording) is refused
// outright rather than compared; B/op, allocs/op and the simulated metrics
// do not depend on the host and compare against any recording.
//
// Smoke mode prints the baseline file it compared against, and a missing
// baseline file fails with instructions instead of a raw read error.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Entry is one benchmark's parsed result.
type Entry struct {
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Metrics holds the custom b.ReportMetric values by unit
	// (sim_inj_per_sec, msgs, sim_us, MB/s, ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Host identifies the machine shape a recording was taken on, so
// single-core trajectory files are self-identifying next to multi-core
// ones.
type Host struct {
	GoMaxProcs int `json:"go_max_procs"`
	NumCPU     int `json:"num_cpu"`
}

// File is the emitted document shape.
type File struct {
	// Note describes how to regenerate the numbers.
	Note string `json:"note"`
	// Host is the recording machine's shape.
	Host *Host `json:"host,omitempty"`
	// Baseline is the pre-change recording this run is compared against.
	Baseline map[string]*Entry `json:"baseline,omitempty"`
	// Current is this run.
	Current map[string]*Entry `json:"current"`
	// SpeedupNsPerOp is baseline ns/op divided by current ns/op for every
	// benchmark present in both sections: >1 is faster.
	SpeedupNsPerOp map[string]float64 `json:"speedup_ns_per_op,omitempty"`
}

func parse(r *bufio.Scanner) (map[string]*Entry, error) {
	out := map[string]*Entry{}
	for r.Scan() {
		line := strings.TrimSpace(r.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		name := fields[0]
		// Strip the -P (GOMAXPROCS) suffix go appends for parallel runs.
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		e := &Entry{}
		n, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		e.Iterations = n
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchjson: %s: bad value %q", name, fields[i])
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				e.NsPerOp = v
			case "B/op":
				e.BytesPerOp = v
			case "allocs/op":
				e.AllocsPerOp = v
			default:
				if e.Metrics == nil {
					e.Metrics = map[string]float64{}
				}
				e.Metrics[unit] = v
			}
		}
		out[name] = e
	}
	return out, r.Err()
}

// loadBaseline reads a baseline file, accepting either a full File
// (using its Current section, and returning the host shape it was
// recorded on when it carries one) or a bare name->Entry map.
func loadBaseline(path string) (map[string]*Entry, *Host, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil, fmt.Errorf(
			"benchjson: baseline file %s does not exist — record it first (`make bench-json BENCH_OUT=%s`) or point -baseline at the newest recorded trajectory file",
			path, path)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("benchjson: baseline %s: %v", path, err)
	}
	var asFile File
	if err := json.Unmarshal(raw, &asFile); err == nil && len(asFile.Current) > 0 {
		return asFile.Current, asFile.Host, nil
	}
	var m map[string]*Entry
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, nil, fmt.Errorf("benchjson: baseline %s: %v", path, err)
	}
	return m, nil, nil
}

// hostShapeErr refuses a host-clock comparison (ns/op) against a baseline
// recorded on another host shape; every other metric is host-independent,
// and a baseline without a host stamp cannot be checked.
func hostShapeErr(metric string, base *Host, cur Host, basePath string) error {
	if metric != "ns/op" || base == nil || *base == cur {
		return nil
	}
	return fmt.Errorf(
		"benchjson smoke: %s was recorded with GOMAXPROCS=%d NumCPU=%d, this process runs with GOMAXPROCS=%d NumCPU=%d — ns/op does not compare across host shapes; re-record with `make bench-json`",
		basePath, base.GoMaxProcs, base.NumCPU, cur.GoMaxProcs, cur.NumCPU)
}

// smokeCheck compares one metric of every benchmark present in both
// runs against the recorded baseline with a relative tolerance band; it
// reports which baseline file the comparisons are against and whether
// any regressed below the band. Custom metrics are rates
// (higher-is-better); the built-in "ns/op", "B/op" and "allocs/op"
// metrics gate costs, so their ratio is inverted (lower-is-better).
func smokeCheck(cur, base map[string]*Entry, basePath, metric string, tol float64) bool {
	ok := true
	compared := 0
	fmt.Printf("benchjson smoke: comparing %s against baseline file %s\n", metric, basePath)
	for name, b := range base {
		c, present := cur[name]
		if !present {
			continue
		}
		cv, cok := metricOf(c, metric)
		bv, bok := metricOf(b, metric)
		if !cok || !bok || bv <= 0 {
			continue
		}
		ratio := cv / bv
		if metric == "ns/op" || metric == "B/op" || metric == "allocs/op" {
			if cv <= 0 {
				continue
			}
			ratio = bv / cv
		}
		compared++
		status := "ok"
		if ratio < 1-tol {
			status = "REGRESSED"
			ok = false
		}
		fmt.Printf("benchjson smoke: %-28s %s %.0f vs baseline %.0f (%.2fx, tolerance -%.0f%%) %s\n",
			name, metric, cv, bv, ratio, tol*100, status)
	}
	if compared == 0 {
		fmt.Fprintln(os.Stderr, "benchjson smoke: no comparable benchmarks between stdin and baseline")
		return false
	}
	return ok
}

// metricOf reads one metric of a benchmark entry: a built-in by its
// `go test` unit, anything else from the custom metrics.
func metricOf(e *Entry, metric string) (float64, bool) {
	switch metric {
	case "ns/op":
		return e.NsPerOp, true
	case "B/op":
		return e.BytesPerOp, true
	case "allocs/op":
		return e.AllocsPerOp, true
	}
	v, ok := e.Metrics[metric]
	return v, ok
}

func main() {
	baselinePath := flag.String("baseline", "", "recorded baseline JSON (File or bare name->Entry map)")
	outPath := flag.String("o", "", "output path (default stdout)")
	note := flag.String("note", "regenerate with `make bench-json`", "provenance note")
	smoke := flag.Bool("smoke", false, "regression-gate mode: compare -metric against -baseline and exit non-zero on regression")
	metric := flag.String("metric", "sim_inj_per_sec", "metric compared in -smoke mode: a custom one (higher is better), ns/op, B/op or allocs/op (lower is better)")
	tol := flag.Float64("tol", 0.25, "relative tolerance band in -smoke mode (0.25 = fail below 75% of baseline)")
	flag.Parse()

	cur, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(cur) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	host := Host{GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
	if *smoke {
		if *baselinePath == "" {
			fmt.Fprintln(os.Stderr, "benchjson: -smoke needs -baseline")
			os.Exit(2)
		}
		base, baseHost, err := loadBaseline(*baselinePath)
		if err == nil {
			err = hostShapeErr(*metric, baseHost, host, *baselinePath)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if !smokeCheck(cur, base, *baselinePath, *metric, *tol) {
			os.Exit(1)
		}
		return
	}
	f := &File{
		Note:    *note,
		Host:    &host,
		Current: cur,
	}
	if *baselinePath != "" {
		base, _, err := loadBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Baseline = base
		f.SpeedupNsPerOp = map[string]float64{}
		for name, b := range f.Baseline {
			if c, ok := cur[name]; ok && c.NsPerOp > 0 && b.NsPerOp > 0 {
				f.SpeedupNsPerOp[name] = b.NsPerOp / c.NsPerOp
			}
		}
	}
	enc, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *outPath == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*outPath, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
