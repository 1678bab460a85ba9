package perf

import (
	"fmt"

	"twochains/internal/workload"
)

// meshIters scales the per-sender round count with the option multiplier.
func meshIters(o Options) int {
	n := int(2 * o.Scale)
	if n < 1 {
		n = 1
	}
	return n
}

// meshExp runs every workload pattern over growing sharded meshes and
// reports simulated injections/sec plus the efficiency of the batched
// injection path and the shared prepared-jam cache, and what the
// receive-side VMs' jam tables did.
func meshExp(o Options) (*Table, error) {
	t := &Table{
		Name:  "mesh",
		Title: "Sharded many-node mesh: mixed workload (injected + local, sssum + iput)",
		Cols: []string{"pattern", "nodes", "shards", "msgs", "inj/s",
			"batched(%)", "cache_hit(%)", "stalls", "sim_ms",
			"slot hit/miss", "decodes"},
	}
	rounds := meshIters(o)
	for _, nodes := range []int{8, 16} {
		for _, p := range workload.Patterns() {
			sc := workload.DefaultScenario(p, nodes)
			sc.Rounds = rounds
			res, err := workload.Run(sc)
			if err != nil {
				return nil, fmt.Errorf("mesh %s/%d: %w", p, nodes, err)
			}
			batched := 0.0
			if res.Mesh.Sent > 0 {
				batched = float64(res.Mesh.BatchedFrames) / float64(res.Mesh.Sent) * 100
			}
			hit := 0.0
			if tot := res.Mesh.JamBinds + res.Mesh.JamHits; tot > 0 {
				hit = float64(res.Mesh.JamHits) / float64(tot) * 100
			}
			t.AddRow(string(p), fmt.Sprint(nodes), fmt.Sprint(res.Shards),
				fmt.Sprint(res.Injections), FmtRate(res.RatePerSec),
				fmt.Sprintf("%.0f", batched), fmt.Sprintf("%.0f", hit),
				fmt.Sprint(res.Mesh.CreditStalls),
				fmt.Sprintf("%.3f", res.SimTime.Seconds()*1e3),
				fmt.Sprintf("%d/%d", res.Mesh.SlotHits, res.Mesh.SlotMisses),
				fmt.Sprint(res.Mesh.Decodes))
		}
	}
	t.Note("hotspot swaps the hot node's server ried mid-run; rates are simulated injections/sec")
	t.Note("slot hit/miss: deliveries finding their mailbox slot's bytes unchanged / remapped; decodes: misses on a body the node had not seen")
	return t, nil
}
