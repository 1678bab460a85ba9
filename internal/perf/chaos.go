package perf

import (
	"fmt"

	"twochains/internal/sim"
	"twochains/internal/workload"
)

// chaosExp measures what failure injection costs: the same mesh
// scenario clean, under chaos perturbation, and with a mid-run node
// failure plus rejoin — goodput, the loss ledger, and the drain
// profile (per-phase completion stamps) side by side. Everything stays
// deterministic: the perturbation RNG is split per port and teardown is
// an event on the simulated clock, so every row reproduces bit for bit.
func chaosExp(o Options) (*Table, error) {
	t := &Table{
		Name:  "chaos",
		Title: "Chaos fabric perturbation and node fail/rejoin over the sharded mesh",
		Cols:  []string{"variant", "pattern", "nodes", "msgs", "lost", "inj/s", "sim_ms"},
	}
	rounds := meshIters(o)
	base := func(p workload.Pattern, nodes int) workload.Scenario {
		sc := workload.DefaultScenario(p, nodes)
		sc.Rounds = rounds
		sc.Shards = 4
		return sc
	}
	chaos := &workload.ChaosSpec{MinDelay: 20 * sim.Nanosecond, MaxDelay: 120 * sim.Nanosecond}
	var drain *workload.Result
	for _, p := range []workload.Pattern{workload.AllToAll, workload.Fanout} {
		for _, variant := range []string{"clean", "chaos", "fail+rejoin"} {
			sc := base(p, 16)
			switch variant {
			case "chaos":
				sc.Chaos = chaos
			case "fail+rejoin":
				sc.Chaos = chaos
				sc.Phases = []workload.Phase{
					{Name: "steady"},
					{Name: "failing", Fail: []workload.Fail{{Node: 3, At: sim.Microsecond}}},
					{Name: "drain", Rejoin: []workload.Rejoin{{Node: 3}}},
				}
			}
			res, err := workload.Run(sc)
			if err != nil {
				return nil, fmt.Errorf("chaos %s/%s: %w", p, variant, err)
			}
			if variant == "fail+rejoin" && p == workload.AllToAll {
				drain = res
			}
			t.AddRow(variant, string(p), "16",
				fmt.Sprint(res.Injections), fmt.Sprint(res.Lost),
				FmtRate(res.RatePerSec),
				fmt.Sprintf("%.3f", res.SimTime.Seconds()*1e3))
		}
	}
	if drain != nil {
		profile := ""
		for i, ph := range drain.Phases {
			if i > 0 {
				profile += ", "
			}
			profile += fmt.Sprintf("%s@%.3fms (%d/%d)", ph.Name,
				ph.End.Seconds()*1e3, ph.Executed, ph.Planned)
		}
		t.Note("alltoall drain profile: %s; lost = issued backlog into the dead node + its abandoned plan", profile)
	}
	t.Note("put perturbation 20-120ns per message from the scenario RNG (order-preserving); equal seeds reproduce every row bit-identically")
	return t, nil
}
