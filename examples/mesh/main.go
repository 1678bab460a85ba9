// Mesh: bring up a sharded many-node tc.System and drive all three
// workload patterns over it — a fan-out broadcast, an all-to-all
// exchange, and a skewed hotspot whose server RIED is hot-swapped while
// traffic is in flight. Along the way it shows the scale-out mechanisms
// of the handle-based API: one Func handle bound once and burst-called
// per destination, batched frame injection (one thin put per contiguous
// slot run), and the per-sender prepared-jam cache (one GOT bind per
// element + receiver namespace, shared across every channel).
package main

import (
	"fmt"
	"log"

	"twochains/internal/core"
	"twochains/internal/perf"
	"twochains/internal/tc"
	"twochains/internal/workload"
)

func main() {
	const nodes = 8

	// 1. Handle-based system API: lazy channels, shard placement, one
	//    handle burst-called at every destination.
	sys, err := tc.NewSystem(nodes)
	if err != nil {
		log.Fatal(err)
	}
	pkg, err := core.BuildBenchPackage()
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.InstallPackage(pkg); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mesh: %d nodes over %d fabric shards (node 0 in shard %d, node %d in shard %d)\n",
		nodes, sys.Cfg.Shards, sys.ShardOf(0), nodes-1, sys.ShardOf(nodes-1))

	args := make([][2]uint64, 16)
	for i := range args {
		args[i] = [2]uint64{uint64(i + 1), 0}
	}
	iput, err := sys.Func(0, "tcbench", "jam_iput") // bind once...
	if err != nil {
		log.Fatal(err)
	}
	for dst := 1; dst < nodes; dst++ { // ...burst to 7 destinations
		fu := iput.Call(dst, args[0], tc.Burst(args), tc.Payload([]byte("burst payload")))
		if res, ok := fu.Result(); ok && res.Err != nil {
			log.Fatal(res.Err)
		}
	}
	sys.Run()
	st := sys.Stats()
	fmt.Printf("burst demo: %d channels, %d frames sent, %d coalesced into %d batched puts\n",
		st.Channels, st.Sent, st.BatchedFrames, st.Batches)
	fmt.Printf("jam cache: %d binds served %d channels (%d hits)\n\n",
		st.JamBinds, st.Channels, st.JamHits)
	sys.Close() // done with this system: the scenario runs below reuse its memory

	// 2. Scenario driver: the three traffic patterns, seeded and
	//    deterministic, reporting simulated injections/sec.
	for _, p := range workload.Patterns() {
		sc := workload.DefaultScenario(p, nodes)
		res, err := workload.Run(sc)
		if err != nil {
			log.Fatal(err)
		}
		extra := ""
		if p == workload.Hotspot {
			extra = fmt.Sprintf("  (hot node %d, ried hot-swapped mid-run: %v)",
				res.HotNode, res.Swapped)
		}
		fmt.Printf("%-8s  %4d msgs in %8v simulated  ->  %s injections/sec%s\n",
			p, res.Injections, res.SimTime, perf.FmtRate(res.RatePerSec), extra)
	}
}
