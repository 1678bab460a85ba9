package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// splitmix64 derives repetition i's seed from the base seed, so every
// repetition has its own inputs and the same (seed, i) always has the
// same ones.
func splitmix64(seed uint64, i int) uint64 {
	z := seed + uint64(i)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// quantile is the q-quantile of sorted xs by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// tailOf returns the highest percentile of xs that still has at least
// ten samples beyond it, and its value; below twenty samples there is
// none and it reports the median.
func tailOf(sorted []float64) (pct, value float64) {
	pct = 50
	for _, p := range []float64{75, 90, 95, 99, 99.9} {
		if float64(len(sorted))*(1-p/100) >= 10 {
			pct = p
		}
	}
	return pct, quantile(sorted, pct/100)
}

// timed is the outcome of one timed section.
type timed struct {
	reps     int
	usPerInj []float64 // per repetition: wall time / injections
	repMs    []float64 // per repetition: wall time
	inj      int
	planned  int
	failed   int
	wall     time.Duration
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
	gcCPU    float64 // GC CPU seconds / total CPU seconds over the section
	heapLive uint64  // largest live heap seen after a repetition
}

func (t *timed) injPerSec() float64 { return float64(t.inj) / t.wall.Seconds() }
func (t *timed) p50() float64       { return median(t.usPerInj) }

// measure runs repetitions 1, 2, ... of r: exactly fixedReps when that
// is positive, otherwise until budget has elapsed (and at least two).
// The first perCallReps of them record per-call spans. Each repetition
// is timed on its own; allocation and GC counters are read once before
// and once after the section.
func measure(c *cfg, r runner, tr *tracer, budget time.Duration, fixedReps, perCallReps int) (timed, error) {
	var t timed
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/live:bytes"},
	}
	metrics.Read(samples)
	gc0, cpu0 := samples[0].Value.Float64(), samples[1].Value.Float64()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 1; ; i++ {
		if fixedReps > 0 {
			if i > fixedReps {
				break
			}
		} else if i > 2 && time.Since(start) >= budget {
			break
		}
		tr.setRep(i)
		sp := tr.begin(spRep)
		t0 := time.Now()
		out, err := r.rep(splitmix64(c.seed, i), tr, i <= perCallReps)
		d := time.Since(t0)
		tr.end(sp)
		if err != nil {
			return t, err
		}
		t.reps++
		t.inj += out.inj
		t.planned += out.planned
		t.failed += out.failed
		if out.inj > 0 {
			t.usPerInj = append(t.usPerInj, float64(d)/1e3/float64(out.inj))
		}
		t.repMs = append(t.repMs, float64(d)/1e6)
		if tr != nil {
			// Sampling the live heap is a traced-run cost only.
			metrics.Read(samples[2:])
			if v := samples[2].Value.Uint64(); v > t.heapLive {
				t.heapLive = v
			}
		}
	}
	t.wall = time.Since(start)
	tr.setRep(-1)
	runtime.ReadMemStats(&ms1)
	metrics.Read(samples)
	t.mallocs = ms1.Mallocs - ms0.Mallocs
	t.bytes = ms1.TotalAlloc - ms0.TotalAlloc
	t.gcCycles = ms1.NumGC - ms0.NumGC
	if cpu := samples[1].Value.Float64() - cpu0; cpu > 0 {
		t.gcCPU = (samples[0].Value.Float64() - gc0) / cpu
	}
	return t, nil
}

// pageFaults is the number of minor page faults this process has taken
// (field 10 of /proc/self/stat), 0 when unreadable.
func pageFaults() uint64 {
	b, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		return 0
	}
	// The command name (field 2) may hold spaces; fields count from its
	// closing parenthesis.
	f := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+1:]))
	if len(f) < 8 {
		return 0
	}
	n, _ := strconv.ParseUint(f[7], 10, 64)
	return n
}

// hostStamp is the shape of the machine a set of numbers came from;
// numbers from differing shapes are not comparable.
type hostStamp struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	GOGC       string  `json:"gogc"`
	GODEBUG    string  `json:"godebug"`
	LoadStart  float64 `json:"loadavg_start"`
	LoadEnd    float64 `json:"loadavg_end"`
}

func readHostStamp() hostStamp {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return hostStamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		GOGC:       gogc,
		GODEBUG:    os.Getenv("GODEBUG"),
		LoadStart:  loadAvg1(),
	}
}

// procField returns the value of the first "key : value" line of a
// /proc file, or "" when the file or the key is missing (non-Linux).
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

func cpuModel() string { return procField("/proc/cpuinfo", "model name") }

// loadAvg1 is the 1-minute load average, 0 when unreadable.
func loadAvg1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64)
	return v
}

// peakRSSMB is the process's high-water resident set (VmHWM), 0 when
// unreadable.
func peakRSSMB() float64 {
	f := strings.Fields(procField("/proc/self/status", "VmHWM"))
	if len(f) == 0 {
		return 0
	}
	kb, _ := strconv.ParseFloat(f[0], 64)
	return kb / 1024
}
