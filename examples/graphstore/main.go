// Graphstore: the paper's motivating workload — a large-scale irregular
// application making unordered concurrent writes to a graph sharded across
// servers. Instead of pulling adjacency data to the client, the client
// pushes edge-insertion functions to whichever shard owns the data.
//
// The demo also shows why shipping code in the message matters for dynamic
// applications: halfway through the run the client switches to a *new*
// insertion function (weight-accumulating) without any registration,
// coordination, or restart on the servers — the new code simply arrives in
// the next message.
package main

import (
	"fmt"
	"log"

	"twochains/internal/core"
	"twochains/internal/mailbox"
	"twochains/internal/sim"
	"twochains/internal/tc"
)

const riedGraph = `
; ried_graph: per-shard adjacency state.
.data
.global gr_count
gr_count:
    .quad 0
.global gr_weight
gr_weight:
    .quad 0
.bss
.global gr_degree
gr_degree:
    .space 524288           ; 65536 vertices x u64 degree
.global gr_edges
gr_edges:
    .space 1048576          ; 65536 edge-log slots of {u, v}
`

const jamAddEdge = `
; jam_addedge: degree[u]++, degree[v]++, append (u,v) to the edge log.
.extern gr_degree
.extern gr_edges
.extern gr_count
.global jam_addedge
jam_addedge:
    ld   r3, [r0+0]         ; u
    ld   r4, [r0+8]         ; v
    ldg  r5, gr_degree
    andi r3, r3, 65535
    andi r4, r4, 65535
    shli r6, r3, 3
    add  r6, r5, r6
    ld   r7, [r6+0]
    addi r7, r7, 1
    st   r7, [r6+0]
    shli r6, r4, 3
    add  r6, r5, r6
    ld   r7, [r6+0]
    addi r7, r7, 1
    st   r7, [r6+0]
    ldg  r8, gr_count
    ld   r9, [r8+0]
    ldg  r6, gr_edges
    andi r7, r9, 65535
    shli r7, r7, 4
    add  r7, r6, r7
    st   r3, [r7+0]
    st   r4, [r7+8]
    addi r9, r9, 1
    st   r9, [r8+0]
    mov  r0, r9             ; return shard edge count
    ret
`

const jamAddEdgeWeighted = `
; jam_addedge_w: the upgraded insert — also accumulates the edge weight
; carried in the payload. Deployed mid-run by simply injecting it.
.extern gr_degree
.extern gr_count
.extern gr_weight
.global jam_addedge_w
jam_addedge_w:
    ld   r3, [r0+0]
    ld   r4, [r0+8]
    ldg  r5, gr_degree
    andi r3, r3, 65535
    andi r4, r4, 65535
    shli r6, r3, 3
    add  r6, r5, r6
    ld   r7, [r6+0]
    addi r7, r7, 1
    st   r7, [r6+0]
    shli r6, r4, 3
    add  r6, r5, r6
    ld   r7, [r6+0]
    addi r7, r7, 1
    st   r7, [r6+0]
    ld   r8, [r1+0]         ; weight from payload
    ldg  r9, gr_weight
    ld   r6, [r9+0]
    add  r6, r6, r8
    st   r6, [r9+0]
    ldg  r8, gr_count
    ld   r9, [r8+0]
    addi r9, r9, 1
    st   r9, [r8+0]
    mov  r0, r9
    ret
`

const jamDegree = `
; jam_degree: read back degree[u].
.extern gr_degree
.global jam_degree
jam_degree:
    ld   r3, [r0+0]
    ldg  r5, gr_degree
    andi r3, r3, 65535
    shli r3, r3, 3
    add  r3, r5, r3
    ld   r0, [r3+0]
    ret
`

func main() {
	pkg, err := core.BuildPackage("graph", map[string]string{
		"jam_addedge.ams":   jamAddEdge,
		"jam_addedge_w.ams": jamAddEdgeWeighted,
		"jam_degree.ams":    jamDegree,
		"ried_graph.rds":    riedGraph,
	})
	if err != nil {
		log.Fatal(err)
	}

	// One client plus two graph shards on a single system; shard i is
	// node i+1. Channels and mailbox regions arm lazily on first call.
	const client = 0
	sys, err := tc.NewSystem(3,
		tc.WithConfig(func(c *core.MeshConfig) {
			c.Geometry = mailbox.Geometry{Banks: 4, Slots: 8, FrameSize: 1024}
			c.Credits = true
		}),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	if err := sys.InstallPackage(pkg); err != nil {
		log.Fatal(err)
	}
	shardOf := func(u uint64) int { return 1 + int(u%2) }

	// Bind each insertion function once; every edge reuses the handles.
	addEdge, err := sys.Func(client, "graph", "jam_addedge")
	if err != nil {
		log.Fatal(err)
	}

	// Phase 1: insert 400 edges of a synthetic power-law-ish graph,
	// sharded by source vertex.
	rng := sim.NewRNG(2021)
	edges := 0
	for i := 0; i < 400; i++ {
		u := uint64(rng.Intn(64)) // hubs: few sources, many targets
		v := uint64(rng.Intn(4096))
		if res, _ := addEdge.Call(shardOf(u), [2]uint64{u, v}).Result(); res.Err != nil {
			log.Fatal(res.Err)
		}
		edges++
	}
	sys.Run()
	fmt.Printf("phase 1: %d plain edge inserts pushed to 2 shards\n", edges)

	// Phase 2: switch to the weighted insert function mid-run. No server
	// cooperation needed: the new function body travels in the messages —
	// deploying new code is just binding another handle.
	addEdgeW, err := sys.Func(client, "graph", "jam_addedge_w")
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		u := uint64(rng.Intn(64))
		v := uint64(rng.Intn(4096))
		w := uint64(rng.Intn(100))
		var weight [8]byte
		for j := 0; j < 8; j++ {
			weight[j] = byte(w >> (8 * j))
		}
		if res, _ := addEdgeW.Call(shardOf(u), [2]uint64{u, v}, tc.Payload(weight[:])).Result(); res.Err != nil {
			log.Fatal(res.Err)
		}
	}
	sys.Run()
	fmt.Println("phase 2: switched to weighted inserts mid-run (no restart, no registration)")

	// Phase 3: query a few hub degrees with a read-only jam, awaiting
	// each future deterministically.
	for i := 1; i <= 2; i++ {
		shard := sys.Node(i)
		shard.OnExecuted = func(ret uint64, _ sim.Duration, err error) {
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %s answered degree query: %d\n", shard.Name, ret)
		}
	}
	degree, err := sys.Func(client, "graph", "jam_degree")
	if err != nil {
		log.Fatal(err)
	}
	for _, u := range []uint64{1, 2, 3} {
		if _, err := degree.Call(shardOf(u), [2]uint64{u, 0}).Await(); err != nil {
			log.Fatal(err)
		}
	}
	sys.Run()

	// Shard-side state, read directly for the report.
	st := sys.Stats()
	for i := 1; i <= 2; i++ {
		shard := sys.Node(i)
		countVA, _ := shard.SymbolVA("gr_count")
		weightVA, _ := shard.SymbolVA("gr_weight")
		count, _ := shard.AS.ReadU64(countVA)
		weight, _ := shard.AS.ReadU64(weightVA)
		fmt.Printf("%s: %d edges in log, accumulated weight %d\n",
			shard.Name, count, weight)
	}
	fmt.Printf("processed %d messages; simulated time for the whole run: %v\n",
		st.Processed, sim.Duration(sys.Now()))
}
