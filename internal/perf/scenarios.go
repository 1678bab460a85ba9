package perf

import (
	"fmt"

	"twochains/internal/workload"
)

// scenariosExp runs the composed application-package scenarios — the
// widened workload surface beyond the three tcbench patterns — and
// reports per-phase completion alongside the usual rate and batching
// columns.
func scenariosExp(o Options) (*Table, error) {
	t := &Table{
		Name:  "scenarios",
		Title: "Composed scenarios over tcapp application packages (kvstore, histo, tcbench)",
		Cols: []string{"scenario", "nodes", "phases", "msgs", "inj/s",
			"batched(%)", "stalls", "swaps", "sim_ms"},
	}
	rounds := meshIters(o)
	for _, nodes := range []int{8, 16} {
		for _, mk := range []struct {
			name  string
			build func(int) workload.Scenario
		}{
			{"kv-openloop", workload.KVStoreScenario},
			{"multiphase", workload.MultiPhaseScenario},
		} {
			sc := mk.build(nodes)
			sc.Rounds = rounds
			res, err := workload.Run(sc)
			if err != nil {
				return nil, fmt.Errorf("scenarios %s/%d: %w", mk.name, nodes, err)
			}
			batched := 0.0
			if res.Mesh.Sent > 0 {
				batched = float64(res.Mesh.BatchedFrames) / float64(res.Mesh.Sent) * 100
			}
			swaps := 0
			for _, ph := range res.Phases {
				if ph.Swapped {
					swaps++
				}
			}
			t.AddRow(mk.name, fmt.Sprint(nodes), fmt.Sprint(len(res.Phases)),
				fmt.Sprint(res.Injections), FmtRate(res.RatePerSec),
				fmt.Sprintf("%.0f", batched),
				fmt.Sprint(res.Mesh.CreditStalls),
				fmt.Sprint(swaps),
				fmt.Sprintf("%.3f", res.SimTime.Seconds()*1e3))
		}
	}
	t.Note("kv-openloop offers Poisson arrivals; multiphase runs warmup -> RIED swap -> mixed kvstore+histo+tcbench drain")
	return t, nil
}
