package perf

import (
	"fmt"

	"twochains/internal/cpusim"
)

// Options tune experiment execution.
type Options struct {
	// Scale multiplies iteration counts: positive and finite; 1.0 is the
	// tcperf default, tests use smaller values.
	Scale float64
}

func (o Options) iters(base int) int {
	n := int(float64(base) * o.Scale)
	if n < 20 {
		n = 20
	}
	return n
}

func (o Options) warmup(base int) int {
	n := o.iters(base) / 10
	if n < 10 {
		n = 10
	}
	return n
}

// Experiment regenerates one figure of the paper.
type Experiment struct {
	Name  string
	Title string
	Run   func(Options) (*Table, error)
}

// experiments is every experiment, in tcperf -list order.
var experiments = []Experiment{
	{Name: "chaos", Title: "Chaos fabric: goodput under put perturbation and a fail/rejoin drain profile", Run: chaosExp},
	{Name: "fig5", Title: "Server-Side Sum: AM put without-execution latency vs UCX put", Run: fig5},
	{Name: "fig6", Title: "Server-Side Sum: AM put without-execution bandwidth vs UCX put", Run: fig6},
	{Name: "fig7", Title: "Indirect Put: latency, Injected vs Local Function", Run: fig7},
	{Name: "fig8", Title: "Indirect Put: message rate, Injected vs Local Function", Run: fig8},
	{Name: "fig9", Title: "Indirect Put: latency with LLC stashing on/off", Run: fig9},
	{Name: "fig10", Title: "Indirect Put: message rate with LLC stashing on/off", Run: fig10},
	{Name: "fig11", Title: "Indirect Put: tail latency on loaded system, stash vs nonstash", Run: fig11},
	{Name: "fig12", Title: "Server-Side Sum: tail latency on loaded system, stash vs nonstash", Run: fig12},
	{Name: "fig13", Title: "Indirect Put: WFE vs polling, latency and CPU cycles", Run: fig13},
	{Name: "fig14", Title: "Server-Side Sum: WFE vs polling, latency and CPU cycles", Run: fig14},
	{Name: "sssum-conv", Title: "Server-Side Sum: Injected vs Local convergence (§VII-A text)", Run: sssumConv},
	{Name: "ablate-frames", Title: "fixed vs variable frame size (extra signal wait)", Run: ablateFrames},
	{Name: "ablate-order", Title: "ordered fabric vs fence + separate signal put", Run: ablateOrder},
	{Name: "ablate-got", Title: "sender-set GOT pointer vs receiver insertion (§V)", Run: ablateGot},
	{Name: "ablate-autoswitch", Title: "auto-switch injected->local on re-injection (§VIII)", Run: ablateAutoswitch},
	{Name: "ablate-banks", Title: "bank/mailbox geometry for injection rate", Run: ablateBanks},
	{Name: "ablate-secexec", Title: "RWX mailbox vs SecureExec copy-before-run (§V)", Run: ablateSecExec},
	{Name: "mesh", Title: "Sharded mesh: mixed-workload injection rates by pattern and node count", Run: meshExp},
	{Name: "scenarios", Title: "Composed scenarios: open-loop kvstore and multi-phase multi-package runs", Run: scenariosExp},
	{Name: "tenants", Title: "Multi-tenant overload: weighted-fair goodput shares and per-tenant p99 under 1-8x offered load", Run: tenantsExp},
}

// Experiments lists all experiments in tcperf -list order.
func Experiments() []Experiment {
	out := make([]Experiment, len(experiments))
	copy(out, experiments)
	return out
}

// Lookup finds an experiment by name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range experiments {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

func pow2(lo, hi int) []int {
	var out []int
	for v := lo; v <= hi; v *= 2 {
		out = append(out, v)
	}
	return out
}

// latencyIters shrinks iteration counts for points whose handler work is
// large (interpreted sums over big payloads), keeping run times sane while
// leaving medians stable.
func latencyIters(o Options, base, payload int) (warmup, iters int) {
	w, n := o.warmup(base), o.iters(base)
	if payload >= 16384 {
		n /= 4
		w /= 2
	} else if payload >= 4096 {
		n /= 2
	}
	if n < 20 {
		n = 20
	}
	if w < 5 {
		w = 5
	}
	return w, n
}

func fig5(o Options) (*Table, error) {
	t := &Table{
		Name:  "fig5",
		Title: "AM put (without-execution) vs UCX put: one-way latency",
		Cols:  []string{"size(B)", "ucx_put(us)", "am_put(us)", "reduction(%)"},
	}
	for _, size := range pow2(256, 32768) {
		w, n := latencyIters(o, 300, size)
		cfg := DefaultRunConfig()
		cfg.Warmup, cfg.Iters = w, n
		ucx, err := UcxPutLatency(cfg, size)
		if err != nil {
			return nil, fmt.Errorf("fig5 size %d: %w", size, err)
		}
		amCfg := cfg
		amCfg.Kind = WkData
		amCfg.PayloadBytes = size
		am, err := PingPong(amCfg)
		if err != nil {
			return nil, fmt.Errorf("fig5 size %d: %w", size, err)
		}
		u, a := ucx.Samples.Median(), am.Samples.Median()
		t.AddRow(fmt.Sprint(size), FmtUs(u), FmtUs(a),
			fmt.Sprintf("%.1f", PercentDelta(float64(u), float64(a))*-1))
	}
	t.Note("paper: AM mailbox delivery costs at most ~2%% latency vs a raw put")
	return t, nil
}

func fig6(o Options) (*Table, error) {
	t := &Table{
		Name:  "fig6",
		Title: "AM put (without-execution) vs UCX put: streaming bandwidth",
		Cols:  []string{"size(B)", "ucx_put(MB/s)", "am_put(MB/s)", "speedup(x)"},
	}
	for _, size := range pow2(256, 32768) {
		cfg := DefaultRunConfig()
		cfg.Warmup, cfg.Iters = o.warmup(200), o.iters(600)
		ucx, err := UcxPutBandwidth(cfg, size)
		if err != nil {
			return nil, fmt.Errorf("fig6 size %d: %w", size, err)
		}
		amCfg := cfg
		amCfg.PayloadBytes = size
		am, err := AmPutBandwidth(amCfg)
		if err != nil {
			return nil, fmt.Errorf("fig6 size %d: %w", size, err)
		}
		t.AddRow(fmt.Sprint(size),
			fmt.Sprintf("%.0f", ucx.Bandwidth/1e6),
			fmt.Sprintf("%.0f", am.Bandwidth/1e6),
			fmt.Sprintf("%.2f", am.Bandwidth/ucx.Bandwidth))
	}
	t.Note("paper: 1.79x to 4.48x bandwidth improvement across all sizes")
	return t, nil
}

// localVsInjected runs both invocation methods through a driver.
func localVsInjected(o Options, elem string, ints []int, rate bool) (*Table, error) {
	name, title := "fig7", "latency (us)"
	if rate {
		name, title = "fig8", "message rate (msg/s)"
	}
	t := &Table{
		Name:  name,
		Title: elem + " Injected vs Local Function: " + title,
		Cols:  []string{"ints", "local", "injected", "delta(%)"},
	}
	driver := PingPong
	if rate {
		driver = InjectionRate
	}
	for _, n := range ints {
		payload := 4 * n
		w, it := latencyIters(o, 300, payload)
		loc, inj, err := sweepPoint(driver, injectedCfg(elem, payload, w, it), func(c *RunConfig, inj bool) {
			if !inj {
				c.Kind = WkLocal
			}
		}, name, "n="+fmt.Sprint(n), [2]string{"local", "injected"})
		if err != nil {
			return nil, err
		}
		if rate {
			t.AddRow(fmt.Sprint(n), FmtRate(loc.Rate), FmtRate(inj.Rate),
				fmt.Sprintf("%.1f", PercentDelta(loc.Rate, inj.Rate)))
		} else {
			l, i := loc.Samples.Median(), inj.Samples.Median()
			t.AddRow(fmt.Sprint(n), FmtUs(l), FmtUs(i),
				fmt.Sprintf("%.1f", PercentDelta(float64(l), float64(i))))
		}
	}
	if rate {
		t.Note("paper: injected ~40%% lower rate at small payloads, converging with size")
	} else {
		t.Note("paper: injected ~40%% slower at small payloads; bumps at 8 and 256 ints from protocol tiers")
	}
	return t, nil
}

func fig7(o Options) (*Table, error) {
	return localVsInjected(o, "jam_iput", pow2(1, 16384), false)
}

func fig8(o Options) (*Table, error) {
	return localVsInjected(o, "jam_iput", pow2(1, 16384), true)
}

// stashSweep compares stash on/off for one workload.
func stashSweep(o Options, name, elem string, payloads []int, rate bool, labelInts bool) (*Table, error) {
	unit, driver := "latency (us)", PingPong
	if rate {
		unit, driver = "message rate", InjectionRate
	}
	t := &Table{
		Name:  name,
		Title: elem + " with LLC stashing on/off: " + unit,
		Cols:  []string{xCol(labelInts), "nonstash", "stash", "delta(%)"},
	}
	for _, payload := range payloads {
		w, it := latencyIters(o, 300, payload)
		label := xLabel(labelInts, payload)
		non, st, err := sweepPoint(driver, injectedCfg(elem, payload, w, it), setStash, name, label, [2]string{"nonstash", "stash"})
		if err != nil {
			return nil, err
		}
		if rate {
			t.AddRow(label, FmtRate(non.Rate), FmtRate(st.Rate),
				fmt.Sprintf("%.1f", PercentDelta(non.Rate, st.Rate)))
		} else {
			nv, sv := non.Samples.Median(), st.Samples.Median()
			t.AddRow(label, FmtUs(nv), FmtUs(sv),
				fmt.Sprintf("%.1f", PercentDelta(float64(nv), float64(sv))*-1))
		}
	}
	return t, nil
}

// injectedCfg is one sweep point's base run: elem injected with a
// payload of the given bytes, w warmup and it measured iterations.
func injectedCfg(elem string, payload, w, it int) RunConfig {
	cfg := DefaultRunConfig()
	cfg.Warmup, cfg.Iters = w, it
	cfg.Kind = WkInjected
	cfg.Elem = elem
	cfg.PayloadBytes = payload
	return cfg
}

// sweepPoint runs driver on two variants of base, in order: set leaves
// the first as is (second=false) or makes the second. A failure names
// the table, the point's label and the variant.
func sweepPoint(driver func(RunConfig) (*RunResult, error), base RunConfig, set func(c *RunConfig, second bool),
	name, label string, variants [2]string) (a, b *RunResult, err error) {
	var out [2]*RunResult
	for i := range out {
		cfg := base
		set(&cfg, i == 1)
		if out[i], err = driver(cfg); err != nil {
			return nil, nil, fmt.Errorf("%s %s %s: %w", name, label, variants[i], err)
		}
	}
	return out[0], out[1], nil
}

// setStash switches LLC stashing off for the first variant of a sweep
// point and on for the second.
func setStash(c *RunConfig, on bool) { c.NodeCfg.Stash = on }

// xCol and xLabel name a sweep's x axis and one point on it: the payload
// as a count of 4-byte ints, or in bytes.
func xCol(labelInts bool) string {
	if labelInts {
		return "ints"
	}
	return "size(B)"
}

func xLabel(labelInts bool, payload int) string {
	if labelInts {
		return fmt.Sprint(payload / 4)
	}
	return fmt.Sprint(payload)
}

func intsPayloads(lo, hi int) []int {
	var out []int
	for _, n := range pow2(lo, hi) {
		out = append(out, 4*n)
	}
	return out
}

func fig9(o Options) (*Table, error) {
	t, err := stashSweep(o, "fig9", "jam_iput", intsPayloads(1, 8192), false, true)
	if err == nil {
		t.Note("paper: up to 31%% latency reduction, narrowing once the prefetcher engages")
	}
	return t, err
}

func fig10(o Options) (*Table, error) {
	t, err := stashSweep(o, "fig10", "jam_iput", intsPayloads(1, 8192), true, true)
	if err == nil {
		t.Note("paper: up to 92%% message-rate increase at small put counts")
	}
	return t, err
}

// tailSweep runs the loaded-system tail-latency comparison.
func tailSweep(o Options, name, elem string, payloads []int, labelInts bool) (*Table, error) {
	t := &Table{
		Name:  name,
		Title: elem + " on fully loaded system (stress-ng model): median/tail/spread",
		Cols: []string{xCol(labelInts), "non_med(us)", "non_tail(us)", "non_spread(%)",
			"st_med(us)", "st_tail(us)", "st_spread(%)"},
	}
	for _, payload := range payloads {
		w, it := latencyIters(o, 3000, payload)
		label := xLabel(labelInts, payload)
		cfg := injectedCfg(elem, payload, w, it)
		cfg.Stress = true
		non, st, err := sweepPoint(PingPong, cfg, setStash, name, label, [2]string{"nonstash", "stash"})
		if err != nil {
			return nil, err
		}
		t.AddRow(label,
			FmtUs(non.Samples.Median()), FmtUs(non.Samples.Tail()),
			fmt.Sprintf("%.0f", non.Samples.TailSpread()*100),
			FmtUs(st.Samples.Median()), FmtUs(st.Samples.Tail()),
			fmt.Sprintf("%.0f", st.Samples.TailSpread()*100))
	}
	return t, nil
}

func fig11(o Options) (*Table, error) {
	t, err := tailSweep(o, "fig11", "jam_iput", intsPayloads(1, 1024), true)
	if err == nil {
		t.Note("paper: stash tail up to 2.4x better; stash spread peaks at 182%%, nonstash erratic")
	}
	return t, err
}

func fig12(o Options) (*Table, error) {
	t, err := tailSweep(o, "fig12", "jam_sssum", pow2(512, 32768), false)
	if err == nil {
		t.Note("paper: stash spread <= 137%% of median from 2KB; tails up to 2x better")
	}
	return t, err
}

// wfeSweep compares polling against WFE wait.
func wfeSweep(o Options, name, elem string, payloads []int, labelInts bool) (*Table, error) {
	t := &Table{
		Name:  name,
		Title: elem + ": spin-poll vs WFE wait, latency and total CPU cycles",
		Cols:  []string{xCol(labelInts), "poll(us)", "wfe(us)", "poll_cycles", "wfe_cycles", "cycle_reduction(x)"},
	}
	for _, payload := range payloads {
		w, it := latencyIters(o, 600, payload)
		label := xLabel(labelInts, payload)
		poll, wfe, err := sweepPoint(PingPong, injectedCfg(elem, payload, w, it), func(c *RunConfig, wfe bool) {
			if wfe {
				c.WaitMode = cpusim.WFE
			}
		}, name, label, [2]string{"poll", "wfe"})
		if err != nil {
			return nil, err
		}
		pc := poll.CyclesA + poll.CyclesB
		wc := wfe.CyclesA + wfe.CyclesB
		t.AddRow(label,
			FmtUs(poll.Samples.Median()), FmtUs(wfe.Samples.Median()),
			fmt.Sprintf("%.3g", pc), fmt.Sprintf("%.3g", wc),
			fmt.Sprintf("%.2f", pc/wc))
	}
	return t, nil
}

func fig13(o Options) (*Table, error) {
	t, err := wfeSweep(o, "fig13", "jam_iput", intsPayloads(1, 1024), true)
	if err == nil {
		t.Note("paper: <=1.5%% latency penalty; 2.5x-3.8x cycle reduction")
	}
	return t, err
}

func fig14(o Options) (*Table, error) {
	t, err := wfeSweep(o, "fig14", "jam_sssum", pow2(512, 32768), false)
	if err == nil {
		t.Note("paper: no latency difference; 3.6x cycle reduction at 512B contracting to 1.84x at 32KB")
	}
	return t, err
}

func sssumConv(o Options) (*Table, error) {
	t, err := localVsInjected(o, "jam_sssum", pow2(1, 16384), false)
	if err == nil {
		t.Name = "sssum-conv"
		t.Note("paper §VII-A: smaller code, so convergence happens around 64 ints")
	}
	return t, err
}
