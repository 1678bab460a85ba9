// Chaos: the failure-injection suite end to end. The chaos fabric
// backend wraps simnet and perturbs every put's latency from the
// scenario's deterministic RNG; a scenario phase tears a node down
// mid-run and rejoins it later, with every unexecutable message
// accounted in the loss ledger; and the issuer-side retry option rides
// a call across the failure window on simulated-time backoff. All of
// it is deterministic: equal seeds reproduce the digests, the loss
// ledger, and the retry timeline bit for bit.
package main

import (
	"errors"
	"fmt"
	"log"

	"twochains/internal/core"
	"twochains/internal/sim"
	"twochains/internal/tc"
	"twochains/internal/workload"
)

func main() {
	// 1. A perturbed fail/rejoin scenario: chaos delays every put by
	//    20-120ns (order-preserving), node 2 dies a microsecond into the
	//    second phase, and the third phase rejoins it and drains.
	sc := workload.DefaultScenario(workload.AllToAll, 9)
	sc.Burst = 4
	sc.Rounds = 2
	sc.Shards = 4
	sc.Chaos = &workload.ChaosSpec{MinDelay: 20 * sim.Nanosecond, MaxDelay: 120 * sim.Nanosecond}
	sc.Phases = []workload.Phase{
		{Name: "steady"},
		{Name: "failing", Fail: []workload.Fail{{Node: 2, At: sim.Microsecond}}},
		{Name: "drain", Rejoin: []workload.Rejoin{{Node: 2}}},
	}
	res, err := workload.Run(sc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("chaos run: %d executed, %d lost to the failure, digest %#x\n",
		res.Injections, res.Lost, res.Digest)
	for _, ph := range res.Phases {
		fmt.Printf("  %-8s %5d/%5d executed, done at %v\n", ph.Name, ph.Executed, ph.Planned, ph.End)
	}
	again, err := workload.Run(sc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replay: digest match %v, loss ledger match %v\n",
		again.Digest == res.Digest, again.Lost == res.Lost)

	// 2. Issuer-side retry on the handle API: a call issued while the
	//    destination is down backs off on the simulated clock and lands
	//    once the node rejoins.
	sys, err := tc.NewSystem(3, tc.WithTiming(false))
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	pkg, err := core.BuildBenchPackage()
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.InstallPackage(pkg); err != nil {
		log.Fatal(err)
	}
	fn, err := sys.Func(0, "tcbench", "jam_iput")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := fn.Call(1, [2]uint64{1, 0}).Await(); err != nil {
		log.Fatal(err)
	}
	if _, err := sys.FailNode(1); err != nil {
		log.Fatal(err)
	}
	// Without a retry policy the refusal is a fast, typed error.
	var nd *core.NodeDownError
	if err := fn.Call(1, [2]uint64{2, 0}).IssueErr(); errors.As(err, &nd) {
		fmt.Printf("bare call while down: %v\n", err)
	}
	sys.Engine().After(5*sim.Microsecond, func() {
		if err := sys.RejoinNode(1); err != nil {
			log.Fatal(err)
		}
	})
	fu := fn.Call(1, [2]uint64{3, 0},
		tc.WithRetry(tc.RetryPolicy{Attempts: 5, Backoff: sim.Microsecond}))
	if _, err := fu.Await(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("retried call landed after rejoin at t=%v\n", sim.Duration(sys.Now()))
}
