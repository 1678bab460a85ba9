package perf

import (
	"fmt"

	"twochains/internal/workload"
)

// tenantsExp sweeps the stock two-tenant overload composition (gold
// weighted 3, bronze 1, identical offered load) across offered-load
// multipliers and reports each tenant's goodput inside the overlap
// window, the measured share ratio against the 3:1 weights, and the
// per-tenant p99 simulated latency. Below saturation the fabric serves
// both tenants at their offered rate (ratio ~1); past it the weighted
// fair queue at every receiver drives the ratio to the weights.
func tenantsExp(o Options) (*Table, error) {
	t := &Table{
		Name:  "tenants",
		Title: "Multi-tenant overload (gold:bronze weighted 3:1, equal offered load)",
		Cols: []string{"load", "tenant", "weight", "planned", "serviced",
			"goodput/s", "share", "p99_us", "window_us"},
	}
	nodes := 4
	for _, mult := range []float64{1, 2, 4, 8} {
		sc := workload.OverloadScenario(nodes, mult)
		sc.Rounds *= meshIters(o)
		res, err := workload.Run(sc)
		if err != nil {
			return nil, fmt.Errorf("tenants %.0fx: %w", mult, err)
		}
		var total float64
		for _, tr := range res.Tenants {
			total += tr.GoodputPerSec
		}
		for _, tr := range res.Tenants {
			share := 0.0
			if total > 0 {
				share = tr.GoodputPerSec / total
			}
			t.AddRow(fmt.Sprintf("%.0fx", mult), tr.Name, fmt.Sprint(tr.Weight),
				fmt.Sprint(tr.Planned), fmt.Sprint(tr.Serviced),
				FmtRate(tr.GoodputPerSec), fmt.Sprintf("%.2f", share),
				fmt.Sprintf("%.2f", tr.P99Latency.Seconds()*1e6),
				fmt.Sprintf("%.1f", res.OverlapWindow.Seconds()*1e6))
		}
	}
	t.Note("goodput and shares are measured inside the overlap window (both tenants still being serviced); 1x is calibrated to just keep up")
	return t, nil
}
