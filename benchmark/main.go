// Command benchmark is the repository's ruler: it runs four named
// workloads on the host clock, checks their outputs, and prints every
// metric BENCHMARK.json names. It measures every layer from outside, by
// timing calls into public functions and reading counters the public
// surface already exposes. See README.md in this directory.
//
//	go run ./benchmark -workload W -seed N -seconds S -trace 0|1
//	go run ./benchmark [-seed N] [-seconds S] [-trace 1] [-out F]   (all four, one child process each)
//	go run ./benchmark -compare old.json new.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	defaultSeed = 0x7c2c2021
	// maxExtraSetups bounds the set-ups added while memory is still being
	// faulted in; settledFaults (16 MB of pages) is "no longer".
	maxExtraSetups = 9
	settledFaults  = 4096
)

// cfg is one invocation's settings.
type cfg struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	quick    bool
	outDir   string
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is what a single-workload run records beside its result, for
// the all-workloads document and -compare.
type detail struct {
	Workload string    `json:"workload"`
	Traced   bool      `json:"traced"`
	Seed     string    `json:"seed"`
	Host     hostStamp `json:"host"`
	Reps     int       `json:"reps"`
	Samples  int       `json:"samples"`
	// RepQuartiles are the quartiles of host µs per injection over the
	// repetitions; Spread is (q3-q1)/median.
	RepQuartiles [3]float64 `json:"rep_quartiles_us_per_inj"`
	Spread       float64    `json:"rep_spread"`
	Noisy        bool       `json:"noisy"`
	Digest       string     `json:"digest"`
	// Base is the base-seed repetition's digest and simulated-clock
	// pair, with all digits (what golden.json pins).
	Base goldenEntry `json:"base"`
	// Info holds the numbers printed but not gated.
	Info   map[string]metric `json:"info"`
	Result result            `json:"result"`

	// tracer lets the tests inspect a traced run's spans.
	tracer *tracer
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c cfg
	var trace int
	var compare bool
	var out, spec string
	fs.StringVar(&c.workload, "workload", "", "run one workload in this process (default: all, one child process each)")
	fs.Uint64Var(&c.seed, "seed", defaultSeed, "base seed; repetition i uses splitmix64(seed, i)")
	fs.Float64Var(&c.seconds, "seconds", 20, "length of the timed section")
	fs.IntVar(&trace, "trace", 0, "1: the traced run (spans, probes, per-layer metrics); 0: the end-to-end run")
	fs.BoolVar(&c.quick, "quick", false, "tiny fixed repetition counts and shrunken scenarios (tests)")
	fs.StringVar(&c.outDir, "outdir", "benchmark/out", "directory for trace-<workload>.json")
	fs.StringVar(&out, "out", "", "all-workloads mode: also write the JSON document to this file")
	fs.BoolVar(&compare, "compare", false, "compare two documents written with -out: -compare old.json new.json")
	fs.StringVar(&spec, "spec", "BENCHMARK.json", "the benchmark contract -compare takes directions and bounds from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	c.trace = trace != 0
	if compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs old.json new.json")
			return 2
		}
		return runCompare(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if c.seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive")
		return 2
	}
	if c.workload == "" {
		return runAll(&c, out, stdout, stderr)
	}
	def := findWorkload(c.workload)
	if def == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", c.workload)
		return 2
	}
	// One driver goroutine; a second P only for the Workers=2 engine and
	// the collector.
	if runtime.NumCPU() >= 2 {
		runtime.GOMAXPROCS(2)
	}
	d, err := runWorkload(&c, def, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", c.workload, err)
		return 1
	}
	db, _ := json.Marshal(d)
	fmt.Fprintf(stdout, "detail: %s\n", db)
	rb, _ := json.Marshal(d.Result)
	fmt.Fprintf(stdout, "%s\n", rb)
	if !d.Result.Correct {
		return 1
	}
	return 0
}

// document is what the all-workloads mode prints last and -out writes.
type document struct {
	Benchmark string    `json:"benchmark"`
	Seed      string    `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Host      hostStamp `json:"host"`
	Runs      []detail  `json:"runs"`
}

// runAll runs every workload in a fresh child process, one at a time
// (the end-to-end run, then the traced run when asked), and prints one
// JSON document holding every metric by name.
func runAll(c *cfg, out string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	doc := document{Benchmark: "twochains", Seed: fmt.Sprintf("%#x", c.seed), Seconds: c.seconds, Host: readHostStamp()}
	godebug := lazyFreeGODEBUG(os.Getenv("GODEBUG"))
	doc.Host.GODEBUG = godebug // what the children run under
	status := 0
	traces := []int{0}
	if c.trace {
		traces = append(traces, 1)
	}
	for _, def := range workloads {
		for _, tr := range traces {
			args := []string{"-workload", def.name, "-seed", strconv.FormatUint(c.seed, 10),
				"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64), "-trace", strconv.Itoa(tr), "-outdir", c.outDir}
			if c.quick {
				args = append(args, "-quick")
			}
			var buf bytes.Buffer
			cmd := exec.Command(exe, args...)
			cmd.Env = append(os.Environ(), "GODEBUG="+godebug)
			cmd.Stdout = io.MultiWriter(stdout, &buf)
			cmd.Stderr = stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", def.name, err)
				status = 1
			}
			if d, ok := parseDetail(buf.Bytes()); ok {
				doc.Runs = append(doc.Runs, d)
			} else {
				status = 1
			}
		}
	}
	doc.Host.LoadEnd = loadAvg1()
	b, _ := json.MarshalIndent(doc, "", " ")
	fmt.Fprintf(stdout, "%s\n", b)
	if out != "" {
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	return status
}

// lazyFreeGODEBUG adds madvdontneed=0 to a GODEBUG value: the runtime
// then hands freed heap back with MADV_FREE, so memory it reuses a
// moment later is not faulted in again. On a virtual machine a page
// fault can cost tens of microseconds, and on the allocation-heavy
// workloads those faults were a tenth of a repetition and most of its
// run-to-run noise. It changes no collector pacing. run.sh sets the same.
func lazyFreeGODEBUG(cur string) string {
	if strings.Contains(cur, "madvdontneed=") {
		return cur
	}
	if cur != "" {
		cur += ","
	}
	return cur + "madvdontneed=0"
}

// parseDetail finds a child's "detail: {...}" line.
func parseDetail(stdout []byte) (detail, bool) {
	var d detail
	for _, line := range bytes.Split(stdout, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("detail: ")); ok {
			return d, json.Unmarshal(rest, &d) == nil
		}
	}
	return d, false
}

// runWorkload performs one workload's run in this process: set-up
// several times (the median is setup_s), the output check, then the
// timed section — or, traced, the spans, variants, replica and probes.
func runWorkload(c *cfg, def *workloadDef, w io.Writer) (detail, error) {
	d := detail{Workload: def.name, Traced: c.trace, Seed: fmt.Sprintf("%#x", c.seed), Host: readHostStamp(),
		Info: map[string]metric{}}
	if c.trace {
		return runTraced(c, def, w, d)
	}

	// Set-up is repeated: setup_s is the median. It is repeated further
	// (by up to maxExtraSetups) while a set-up still takes more than
	// settledFaults page faults, because on a virtual machine
	// first-touching fresh memory can cost tens of microseconds a page,
	// and repetitions that still fault memory in would carry that cost
	// into the timed section as noise.
	var setups []float64
	var r runner
	n := def.setups
	if c.quick {
		n = 1
	}
	for i := 0; i < n+maxExtraSetups; i++ {
		faults0 := pageFaults()
		t0 := time.Now()
		var err error
		if r, err = def.setup(c, nil); err != nil {
			return d, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i+1 >= n && (c.quick || pageFaults()-faults0 <= settledFaults) {
			break
		}
	}

	checked, bad, base, err := outputCheck(c, def, &d)
	if err != nil {
		return d, err
	}
	fixed := 0
	if c.quick {
		fixed = 3
	}
	t, err := measure(c, r, nil, time.Duration(c.seconds*float64(time.Second)), fixed, 0)
	if err != nil {
		return d, err
	}
	fillSpread(&d, &t)

	d.Result = result{
		Correct:   bad == 0 && t.failed == 0,
		Attempted: t.planned + checked,
		Failed:    t.failed + bad,
		Metrics: map[string]metric{
			"host_inj_per_sec":    {t.injPerSec(), "inj/s"},
			"host_us_per_inj_p50": {t.p50(), "us"},
			"setup_s":             {median(setups), "s"},
		},
	}
	addRunInfo(d.Info, &t, base)
	d.Info["host.setups"] = metric{float64(len(setups)), "count"}
	printRun(w, &d)
	return d, nil
}

// outputCheck runs the workload's output check and the golden
// comparison of its base-seed repetition, and records that repetition.
func outputCheck(c *cfg, def *workloadDef, d *detail) (checked, bad int, base repOut, err error) {
	checked, bad, base, err = def.check(c)
	if err != nil {
		return 0, 0, base, fmt.Errorf("output check: %w", err)
	}
	bad += goldenMismatch(c, def.name, base)
	d.Base = goldenOf(base)
	d.Digest = d.Base.Digest
	return checked, bad, base, nil
}

// fillSpread records the repetition quartiles -compare reads and
// applies the noise guard: a run is labelled noisy when the 1-minute
// load at its start exceeded half the processors or its repetitions'
// IQR exceeds a quarter of their median.
func fillSpread(d *detail, t *timed) {
	s := sortedCopy(t.usPerInj)
	d.Reps, d.Samples = t.reps, len(s)
	d.RepQuartiles = [3]float64{quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)}
	d.Spread = ratioOf(d.RepQuartiles[2]-d.RepQuartiles[0], d.RepQuartiles[1])
	d.Host.LoadEnd = loadAvg1()
	d.Noisy = d.Host.LoadStart > 0.5*float64(d.Host.NProc) || d.Spread > 0.25
}

// addRunInfo adds the numbers every run can report without tracing:
// allocation rates, the tail, the simulated-clock pair, peak RSS.
func addRunInfo(m map[string]metric, t *timed, base repOut) {
	s := sortedCopy(t.usPerInj)
	pct, tail := tailOf(s)
	inj := float64(t.inj)
	m["runtime.allocs_per_inj"] = metric{ratioOf(float64(t.mallocs), inj), "count"}
	m["runtime.alloc_bytes_per_inj"] = metric{ratioOf(float64(t.bytes), inj), "B"}
	m["runtime.gc_cpu_frac"] = metric{t.gcCPU, "ratio"}
	m["runtime.gc_cycles"] = metric{float64(t.gcCycles), "count"}
	m["runtime.peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	m["host.us_per_inj_tail"] = metric{tail, "us"}
	m["host.tail_pct"] = metric{pct, "%"}
	m["host.samples"] = metric{float64(len(s)), "count"}
	m["sim_inj_per_sec"] = metric{base.simRate, "inj/sim-s"}
	m["sim_us"] = metric{base.simTime.Microseconds(), "sim-us"}
	m["failed_frac"] = metric{ratioOf(float64(t.failed), float64(t.planned)), "ratio"}
	diverged := 0.0
	if base.workersDiverged {
		diverged = 1
	}
	m["sim.group.w1_w2_diverged"] = metric{diverged, "count"}
}

// printRun prints one run for people: every metric by name with its
// unit, the sample count, the repetition quartiles and the host stamp.
func printRun(w io.Writer, d *detail) {
	mode := "end-to-end"
	if d.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s) seed=%s reps=%d samples=%d digest=%s\n", d.Workload, mode, d.Seed, d.Reps, d.Samples, d.Digest)
	h := d.Host
	fmt.Fprintf(w, "   host: nproc=%d GOMAXPROCS=%d %s GOGC=%s GODEBUG=%q cpu=%q load=%.2f->%.2f\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.GOGC, h.GODEBUG, h.CPUModel, h.LoadStart, h.LoadEnd)
	noisy := ""
	if d.Noisy {
		noisy = "  NOISY: do not trust this set"
	}
	fmt.Fprintf(w, "   rep us/inj quartiles: %.4f %.4f %.4f (spread %.3f)%s\n",
		d.RepQuartiles[0], d.RepQuartiles[1], d.RepQuartiles[2], d.Spread, noisy)
	printMetrics(w, d.Result.Metrics)
	printMetrics(w, d.Info)
	if d.Info["sim.group.w1_w2_diverged"].Value+d.Result.Metrics["sim.group.w1_w2_diverged"].Value > 0 {
		fmt.Fprintln(w, "   WARNING: the base-seed repetition gives another digest at Workers=1 than at Workers=2")
	}
	fmt.Fprintf(w, "   correct=%v attempted=%d failed=%d\n", d.Result.Correct, d.Result.Attempted, d.Result.Failed)
}

// ratioOf is a/b, 0 when b is 0.
func ratioOf(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func printMetrics(w io.Writer, m map[string]metric) {
	for _, name := range sortedNames(m) {
		fmt.Fprintf(w, "   %-32s %16.6g %s\n", name, m[name].Value, m[name].Unit)
	}
}
