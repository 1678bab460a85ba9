package perf

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"twochains/internal/cpusim"
	"twochains/internal/sim"
)

func TestSamplesStatistics(t *testing.T) {
	var s Samples
	for i := 1; i <= 1000; i++ {
		s.Add(sim.Duration(i))
	}
	if s.Median() != 500 && s.Median() != 501 {
		t.Fatalf("median = %d", s.Median())
	}
	if s.Tail() < 990 {
		t.Fatalf("p99.9 = %d", s.Tail())
	}
	spread := s.TailSpread()
	if spread < 0.9 || spread > 1.1 {
		t.Fatalf("spread = %f", spread)
	}
}

func TestPercentDelta(t *testing.T) {
	if PercentDelta(100, 90) != -10 {
		t.Fatal("delta -10")
	}
	if PercentDelta(0, 5) != 0 {
		t.Fatal("zero base")
	}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{Name: "x", Title: "demo", Cols: []string{"a", "b"}}
	tab.AddRow("1", "2")
	tab.Note("hello %d", 42)
	var sb strings.Builder
	tab.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"== x: demo ==", "a", "b", "1", "2", "note: hello 42"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	var csv strings.Builder
	tab.FprintCSV(&csv)
	if !strings.HasPrefix(csv.String(), "a,b\n1,2\n") {
		t.Fatalf("csv: %q", csv.String())
	}
}

func TestTableRowMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	tab := &Table{Name: "x", Cols: []string{"a", "b"}}
	tab.AddRow("only-one")
}

func smallCfg(kind WorkloadKind, elem string, payload int) RunConfig {
	cfg := DefaultRunConfig()
	cfg.Warmup, cfg.Iters = 10, 60
	cfg.Kind = kind
	cfg.Elem = elem
	cfg.PayloadBytes = payload
	return cfg
}

func TestPingPongDataFrames(t *testing.T) {
	res, err := PingPong(smallCfg(WkData, "", 256))
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d errors", res.Errors)
	}
	med := res.Samples.Median()
	// One-way small-frame latency should be around a microsecond.
	if med < 500*sim.Nanosecond || med > 3*sim.Microsecond {
		t.Fatalf("median latency %v out of plausible range", med)
	}
}

func TestPingPongInjectedExecutes(t *testing.T) {
	res, err := PingPong(smallCfg(WkInjected, "jam_iput", 64))
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d errors", res.Errors)
	}
	if res.Samples.N() != 60 {
		t.Fatalf("samples %d", res.Samples.N())
	}
}

func TestInjectedSlowerThanLocalAtSmallSizes(t *testing.T) {
	loc, err := PingPong(smallCfg(WkLocal, "jam_iput", 4))
	if err != nil {
		t.Fatal(err)
	}
	inj, err := PingPong(smallCfg(WkInjected, "jam_iput", 4))
	if err != nil {
		t.Fatal(err)
	}
	l, i := float64(loc.Samples.Median()), float64(inj.Samples.Median())
	if i <= l {
		t.Fatalf("injected %f not slower than local %f at 1 int", i, l)
	}
	// Paper: ~40% penalty. Accept a broad band around it.
	penalty := (i - l) / l
	if penalty < 0.10 || penalty > 0.90 {
		t.Fatalf("injected penalty %.2f, want 0.10-0.90 (paper ~0.40)", penalty)
	}
}

func TestStashImprovesInjectedLatency(t *testing.T) {
	mk := func(stash bool) RunConfig {
		cfg := smallCfg(WkInjected, "jam_iput", 64)
		cfg.NodeCfg.Stash = stash
		return cfg
	}
	non, err := PingPong(mk(false))
	if err != nil {
		t.Fatal(err)
	}
	st, err := PingPong(mk(true))
	if err != nil {
		t.Fatal(err)
	}
	n, s := float64(non.Samples.Median()), float64(st.Samples.Median())
	if s >= n {
		t.Fatalf("stash %f not faster than nonstash %f", s, n)
	}
	reduction := (n - s) / n
	if reduction < 0.05 || reduction > 0.5 {
		t.Fatalf("stash reduction %.2f, want 0.05-0.50 (paper: up to 0.31)", reduction)
	}
}

func TestWfeCutsCyclesNotLatency(t *testing.T) {
	mk := func(mode cpusim.WaitMode) RunConfig {
		cfg := smallCfg(WkInjected, "jam_iput", 64)
		cfg.WaitMode = mode
		return cfg
	}
	poll, err := PingPong(mk(cpusim.Poll))
	if err != nil {
		t.Fatal(err)
	}
	wfe, err := PingPong(mk(cpusim.WFE))
	if err != nil {
		t.Fatal(err)
	}
	lp, lw := float64(poll.Samples.Median()), float64(wfe.Samples.Median())
	if (lw-lp)/lp > 0.05 {
		t.Fatalf("WFE latency penalty %.3f too large", (lw-lp)/lp)
	}
	cp := poll.CyclesA + poll.CyclesB
	cw := wfe.CyclesA + wfe.CyclesB
	if cp/cw < 1.5 {
		t.Fatalf("cycle reduction %.2f, want > 1.5 (paper 2.5-3.8x)", cp/cw)
	}
}

func TestInjectionRateDriver(t *testing.T) {
	cfg := smallCfg(WkLocal, "jam_sssum", 4)
	cfg.Warmup, cfg.Iters = 50, 400
	res, err := InjectionRate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rate < 1e5 || res.Rate > 1e8 {
		t.Fatalf("rate %.0f msg/s implausible", res.Rate)
	}
}

func TestStressWidensTail(t *testing.T) {
	mk := func(stress bool) RunConfig {
		cfg := smallCfg(WkInjected, "jam_iput", 64)
		cfg.Warmup, cfg.Iters = 50, 1500
		cfg.Stress = stress
		cfg.NodeCfg.Stash = false
		return cfg
	}
	quiet, err := PingPong(mk(false))
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := PingPong(mk(true))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Samples.TailSpread() <= quiet.Samples.TailSpread() {
		t.Fatalf("stress spread %.2f not wider than quiet %.2f",
			loaded.Samples.TailSpread(), quiet.Samples.TailSpread())
	}
	if loaded.Samples.Median() <= quiet.Samples.Median() {
		t.Fatal("stress did not raise the median")
	}
}

func TestStashTightensLoadedTail(t *testing.T) {
	mk := func(stash bool) RunConfig {
		cfg := smallCfg(WkInjected, "jam_iput", 256)
		cfg.Warmup, cfg.Iters = 50, 2000
		cfg.Stress = true
		cfg.NodeCfg.Stash = stash
		return cfg
	}
	non, err := PingPong(mk(false))
	if err != nil {
		t.Fatal(err)
	}
	st, err := PingPong(mk(true))
	if err != nil {
		t.Fatal(err)
	}
	if st.Samples.Tail() >= non.Samples.Tail() {
		t.Fatalf("stash tail %v not better than nonstash %v under load",
			st.Samples.Tail(), non.Samples.Tail())
	}
}

func TestUcxBaselines(t *testing.T) {
	cfg := DefaultRunConfig()
	cfg.Warmup, cfg.Iters = 10, 60
	lat, err := UcxPutLatency(cfg, 256)
	if err != nil {
		t.Fatal(err)
	}
	if lat.Samples.Median() < 500*sim.Nanosecond || lat.Samples.Median() > 3*sim.Microsecond {
		t.Fatalf("put latency %v", lat.Samples.Median())
	}
	bw, err := UcxPutBandwidth(cfg, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if bw.Bandwidth <= 0 {
		t.Fatal("no bandwidth")
	}
}

// TestRegistryComplete pins the experiment list in tcperf -list order.
func TestRegistryComplete(t *testing.T) {
	want := []string{"chaos"}
	for i := 5; i <= 14; i++ {
		want = append(want, "fig"+strconv.Itoa(i))
	}
	want = append(want, "sssum-conv", "ablate-frames", "ablate-order",
		"ablate-got", "ablate-autoswitch", "ablate-banks", "ablate-secexec",
		"mesh", "scenarios", "tenants")
	var names []string
	for _, e := range Experiments() {
		names = append(names, e.Name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("experiments %v,\nwant %v", names, want)
	}
	if _, ok := Lookup("fig9"); !ok {
		t.Error("Lookup failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup found nonsense")
	}
}

// update rewrites the experiment goldens in testdata/ from this run:
// `go test ./internal/perf -run TestExperimentSmoke -update`, the one
// deliberate way to move a pinned figure.
var update = flag.Bool("update", false, "rewrite testdata/<experiment>.csv from this run")

func TestExperimentSmoke(t *testing.T) {
	// Every experiment must run end to end at tiny scale and produce a
	// fully populated table, and that table's CSV must equal its golden
	// in testdata/ byte for byte: every cell is a simulated figure, a
	// function of the model and the seed alone. This is the repository's
	// broadest integration test.
	if testing.Short() {
		t.Skip("short mode")
	}
	o := Options{Scale: 0.05}
	for _, e := range Experiments() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			tab, err := e.Run(o)
			if err != nil {
				t.Fatal(err)
			}
			if len(tab.Rows) == 0 {
				t.Fatal("empty table")
			}
			for _, row := range tab.Rows {
				for j, cell := range row {
					if cell == "" {
						t.Fatalf("empty cell %d in row %v", j, row)
					}
				}
			}
			var got bytes.Buffer
			tab.FprintCSV(&got)
			path := filepath.Join("testdata", e.Name+".csv")
			if *update {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (record it with -update)", err)
			}
			if got.String() != string(want) {
				t.Fatalf("table differs from %s\n got:\n%s\nwant:\n%s", path, got.String(), want)
			}
		})
	}
}
