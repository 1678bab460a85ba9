package perf

import (
	"fmt"
)

// Ablations vary the design choices the paper names: the frame format and
// the write-order guarantee its signal protocol leans on (Fig. 1), the GOT
// insertion policy and the separation of code pages from writable mailbox
// data (§V), the injected-to-local auto-switch it leaves as future work
// (§VIII), and mailbox bank geometry.

// latencyAblation fills t with jam_iput ping-pong latency for payloads
// of each count of ints, with the option set switches off (second=false)
// and on: the median of each and the percent change.
func latencyAblation(o Options, t *Table, ints []int, set func(c *RunConfig, on bool)) (*Table, error) {
	for _, n := range ints {
		w, it := latencyIters(o, 300, 4*n)
		off, on, err := sweepPoint(PingPong, injectedCfg("jam_iput", 4*n, w, it), set, t.Name, fmt.Sprint(n), [2]string{t.Cols[1], t.Cols[2]})
		if err != nil {
			return nil, err
		}
		a, b := off.Samples.Median(), on.Samples.Median()
		t.AddRow(fmt.Sprint(n), FmtUs(a), FmtUs(b),
			fmt.Sprintf("%.1f", PercentDelta(float64(a), float64(b))))
	}
	return t, nil
}

func ablateFrames(o Options) (*Table, error) {
	t := &Table{
		Name:  "ablate-frames",
		Title: "Indirect Put latency: fixed-size vs variable-size frames",
		Cols:  []string{"ints", "fixed(us)", "variable(us)", "penalty(%)"},
	}
	t.Note("variable frames wait on the header, then on the trailing signal (paper Fig. 1)")
	return latencyAblation(o, t, []int{1, 16, 256, 4096}, func(c *RunConfig, on bool) { c.VariableFrames = on })
}

func ablateOrder(o Options) (*Table, error) {
	t := &Table{
		Name:  "ablate-order",
		Title: "Indirect Put latency: write-order guarantee vs fence + separate signal put",
		Cols:  []string{"ints", "ordered(us)", "fenced(us)", "penalty(%)"},
	}
	t.Note("without the hardware guarantee each message needs a fence and a second put")
	return latencyAblation(o, t, []int{1, 16, 256, 4096}, func(c *RunConfig, fenced bool) { c.Ordered = !fenced })
}

func ablateGot(o Options) (*Table, error) {
	t := &Table{
		Name:  "ablate-got",
		Title: "Indirect Put latency: sender-set GOT pointer vs receiver insertion",
		Cols:  []string{"ints", "sender(us)", "receiver(us)", "penalty(%)"},
	}
	t.Note("receiver insertion defeats GOT-pointer spoofing at one extra patch per arrival")
	return latencyAblation(o, t, []int{1, 64, 1024}, func(c *RunConfig, on bool) { c.NodeCfg.InsertGp = on })
}

func ablateAutoswitch(o Options) (*Table, error) {
	t := &Table{
		Name:  "ablate-autoswitch",
		Title: "Injection rate: always-inject vs auto-switch to local after 16 sends",
		Cols:  []string{"ints", "inject(msg/s)", "autoswitch(msg/s)", "gain(%)"},
	}
	for _, n := range []int{1, 64, 1024} {
		cfg := DefaultRunConfig()
		cfg.Warmup, cfg.Iters = o.warmup(300), o.iters(1500)
		cfg.Kind = WkInjected
		cfg.Elem = "jam_iput"
		cfg.PayloadBytes = 4 * n
		always, err := InjectionRate(cfg)
		if err != nil {
			return nil, err
		}
		cfg.AutoSwitchAfter = 16
		sw, err := InjectionRate(cfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(n), FmtRate(always.Rate), FmtRate(sw.Rate),
			fmt.Sprintf("%.1f", PercentDelta(always.Rate, sw.Rate)))
	}
	t.Note("the §VIII future-work feature: reoccurring functions stop shipping their code")
	return t, nil
}

func ablateBanks(o Options) (*Table, error) {
	t := &Table{
		Name:  "ablate-banks",
		Title: "Injection rate vs mailbox geometry (64B local frames)",
		Cols:  []string{"banks", "slots", "rate(msg/s)"},
	}
	for _, geom := range [][2]int{{1, 1}, {1, 8}, {2, 4}, {4, 8}, {4, 32}, {8, 64}} {
		cfg := DefaultRunConfig()
		cfg.Warmup, cfg.Iters = o.warmup(300), o.iters(2000)
		cfg.Kind = WkLocal
		cfg.Elem = "jam_sssum"
		cfg.PayloadBytes = 4
		cfg.Banks, cfg.Slots = geom[0], geom[1]
		res, err := InjectionRate(cfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(geom[0]), fmt.Sprint(geom[1]), FmtRate(res.Rate))
	}
	t.Note("few slots stall the sender on credit returns; deep banks hide the round trip")
	return t, nil
}

func ablateSecExec(o Options) (*Table, error) {
	t := &Table{
		Name:  "ablate-secexec",
		Title: "Indirect Put latency: execute-in-mailbox vs copy to private X page",
		Cols:  []string{"ints", "rwx(us)", "secexec(us)", "penalty(%)"},
	}
	t.Note("the paper's §V separation of code pages from writable mailbox data")
	return latencyAblation(o, t, []int{1, 64, 1024}, func(c *RunConfig, on bool) { c.NodeCfg.SecureExec = on })
}
