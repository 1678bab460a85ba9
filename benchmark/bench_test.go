package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// quickRun runs one workload in -quick mode in this process; a traced
// run writes its trace file into dir.
func quickRun(t *testing.T, name string, seed uint64, traced bool, dir string) detail {
	t.Helper()
	c := &cfg{workload: name, seed: seed, seconds: 1, quick: true, trace: traced, outDir: dir}
	d, err := runWorkload(c, findWorkload(name), io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !d.Result.Correct || d.Result.Failed != 0 || d.Result.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", name, d.Result.Correct, d.Result.Attempted, d.Result.Failed)
	}
	return d
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	var spec benchSpec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// checkNames requires got to be exactly the metrics want lists, each
// with the listed unit.
func checkNames(t *testing.T, what string, got map[string]metric, want []specMetric) {
	t.Helper()
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s of BENCHMARK.json is not reported", what, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, m.Name, g.Unit, m.Unit)
		}
		if !nameRE.MatchString(m.Name) {
			t.Errorf("%s: metric name %q", what, m.Name)
		}
	}
	if len(got) != len(want) {
		for name := range got {
			found := false
			for _, m := range want {
				found = found || m.Name == name
			}
			if !found {
				t.Errorf("%s: metric %s is reported but not in BENCHMARK.json", what, name)
			}
		}
	}
}

// TestQuickMatchesContract: -quick emits exactly the workloads and
// metrics BENCHMARK.json names, repeats exactly where it must, and its
// spans nest.
func TestQuickMatchesContract(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, wl := range spec.Workloads {
		if wl.Name != workloads[i].name || !nameRE.MatchString(wl.Name) {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, wl.Name, workloads[i].name)
		}
	}
	for _, def := range workloads {
		def := def
		t.Run(def.name, func(t *testing.T) {
			dir := t.TempDir()
			e2e := quickRun(t, def.name, defaultSeed+1, false, dir)
			checkNames(t, "end-to-end run", e2e.Result.Metrics, spec.EndToEnd)
			a := quickRun(t, def.name, defaultSeed, true, dir)
			checkNames(t, "traced run", a.Result.Metrics, spec.PerLayer)
			checkSpans(t, a.tracer)
			if _, err := os.Stat(filepath.Join(dir, "trace-"+def.name+".json")); err != nil {
				t.Errorf("trace file: %v", err)
			}

			b := quickRun(t, def.name, defaultSeed, true, dir)
			if a.Digest != b.Digest {
				t.Errorf("one seed, digests %s and %s", a.Digest, b.Digest)
			}
			for _, name := range exactMetrics {
				if a.Result.Metrics[name] != b.Result.Metrics[name] {
					t.Errorf("%s: %v then %v with one seed", name, a.Result.Metrics[name], b.Result.Metrics[name])
				}
			}
			if e2e.Digest == a.Digest {
				t.Errorf("seeds %#x and %#x share digest %s", defaultSeed, defaultSeed+1, a.Digest)
			}
		})
	}
}

// checkSpans: every span's parent exists and precedes it, the child
// lies inside the parent, and no span's self time is negative.
func checkSpans(t *testing.T, tr *tracer) {
	t.Helper()
	if tr == nil || len(tr.spans) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	if tr.dropped > 0 {
		t.Errorf("%d spans dropped in a quick run", tr.dropped)
	}
	for i, s := range tr.spans {
		if s.end < s.start {
			t.Fatalf("span %d ends before it starts", i)
		}
		if s.parent < 0 {
			continue
		}
		if int(s.parent) >= i {
			t.Fatalf("span %d has parent %d", i, s.parent)
		}
		if p := tr.spans[s.parent]; s.start < p.start || s.end > p.end {
			t.Fatalf("span %d [%d,%d] outside parent %d [%d,%d]", i, s.start, s.end, s.parent, p.start, p.end)
		}
	}
	for i, self := range tr.selfTimes() {
		if self < 0 {
			t.Fatalf("span %d has self time %d", i, self)
		}
	}
}

// TestCompare: identical documents compare clean, a slowdown past the
// bound is a regression, and differing host shapes are refused.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, p50 float64, nproc int) string {
		doc := document{Seed: "0x1", Seconds: 1, Host: hostStamp{NProc: nproc, GOMAXPROCS: 2, GoVersion: "go"}}
		for _, def := range workloads {
			doc.Runs = append(doc.Runs, detail{Workload: def.name, Digest: "0x1", Result: result{Correct: true, Attempted: 1,
				Metrics: map[string]metric{
					"host_inj_per_sec":    {1e6 / p50, "inj/s"},
					"host_us_per_inj_p50": {p50, "us"},
					"setup_s":             {0.5, "s"},
				}}})
		}
		b, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := filepath.Join("..", "BENCHMARK.json")
	base, slow, other := mk("base.json", 10, 2), mk("slow.json", 14, 2), mk("other.json", 10, 4)
	for _, tc := range []struct {
		old, new string
		want     int
	}{{base, base, 0}, {base, slow, 1}, {slow, base, 0}, {base, other, 2}} {
		if got := runCompare(spec, tc.old, tc.new, io.Discard, io.Discard); got != tc.want {
			t.Errorf("compare %s %s: exit %d, want %d", filepath.Base(tc.old), filepath.Base(tc.new), got, tc.want)
		}
	}
}

// TestIPutModel pins the native Indirect Put model's shape: a key maps
// to one 64 KB region of the heap and keeps it.
func TestIPutModel(t *testing.T) {
	m := newIPutModel()
	first := m.apply(42)
	if first&0xFFFF != 0 || first >= 64<<16 {
		t.Errorf("offset %#x is not a 64 KB region of the 4 MB heap", first)
	}
	if m.apply(7); m.apply(42) != first {
		t.Error("a key moved")
	}
}
