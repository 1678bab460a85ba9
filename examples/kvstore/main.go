// KVStore: the application-package authoring surface end to end. First
// the registered kvstore app — an open-addressed key/value table whose
// put/get/scan functions travel as injected code — is driven through
// bind-once Func handles and checked live against its native oracle.
// Then a brand-new one-element app is authored inline with the tcapp
// builder and injected, showing that a new RIED application is a dozen
// lines of data, not a fork of the driver. Finally the composed
// scenarios run: the open-loop Poisson kvstore workload and the
// multi-phase warmup -> RIED-swap -> multi-package drain, both plain
// Scenario data.
package main

import (
	"fmt"
	"log"

	"twochains/internal/perf"
	"twochains/internal/sim"
	"twochains/internal/tc"
	"twochains/internal/tcapp"
	"twochains/internal/workload"
)

func main() {
	// 1. The registered kvstore app on a 4-node system: bind handles
	//    once, then puts, gets, and a scan as Injected Functions, with
	//    the native oracle tracking the server node in lockstep.
	sys, err := tc.NewSystem(4)
	if err != nil {
		log.Fatal(err)
	}
	pkg, err := tcapp.Build("kvstore")
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.InstallPackage(pkg); err != nil {
		log.Fatal(err)
	}
	oracle := tcapp.NewKVOracle()
	// Bind once: one handle per element, one execution hook — every
	// call after this resolves no strings.
	fns := map[string]*tc.Func{}
	for _, elem := range []string{"jam_kv_put", "jam_kv_get", "jam_kv_scan"} {
		fn, err := sys.Func(0, "kvstore", elem)
		if err != nil {
			log.Fatal(err)
		}
		fns[elem] = fn
	}
	var got uint64
	sys.Node(1).OnExecuted = func(ret uint64, _ sim.Duration, err error) {
		if err != nil {
			log.Fatalf("kvstore handler faulted: %v", err)
		}
		got = ret
	}
	call := func(elem string, args [2]uint64) uint64 {
		if _, err := fns[elem].Call(1, args).Await(); err != nil {
			log.Fatal(err)
		}
		sys.Run()
		want, err := oracle.Apply(elem, args, nil)
		if err != nil {
			log.Fatal(err)
		}
		status := "== oracle"
		if got != want {
			status = fmt.Sprintf("!= oracle %d", want)
		}
		fmt.Printf("  %-12s(%5d, %5d) -> %6d  %s\n", elem, args[0], args[1], got, status)
		return got
	}
	fmt.Println("kvstore app, node 0 -> node 1:")
	call("jam_kv_put", [2]uint64{7, 700})
	call("jam_kv_put", [2]uint64{42, 4200})
	call("jam_kv_put", [2]uint64{7, 777}) // overwrite, same slot
	call("jam_kv_get", [2]uint64{7, 0})
	call("jam_kv_get", [2]uint64{31337, 0}) // miss
	call("jam_kv_scan", [2]uint64{0, 127})

	// 2. A new app authored inline: one data word, one jam. This is the
	//    whole cost of bringing a new application to the fabric.
	counter, err := tcapp.New("counter").
		DataWords("ctr", 0).
		Func("bump", `
extern long ctr[];

long jam_bump(long* args, byte* usr, long len) {
    ctr[0] = ctr[0] + args[0];
    return ctr[0];
}
`).Build()
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.InstallPackage(counter); err != nil {
		log.Fatal(err)
	}
	bump, err := sys.Func(0, "counter", "jam_bump")
	if err != nil {
		log.Fatal(err)
	}
	var last uint64
	sys.Node(2).OnExecuted = func(ret uint64, _ sim.Duration, err error) {
		if err != nil {
			log.Fatal(err)
		}
		last = ret
	}
	for i := 1; i <= 3; i++ {
		if _, err := bump.Call(2, [2]uint64{uint64(i * 10), 0}).Await(); err != nil {
			log.Fatal(err)
		}
	}
	sys.Run()
	fmt.Printf("\ninline-authored counter app: three bumps on node 2 -> ctr = %d\n\n", last)
	sys.Close() // done with this system: the scenario runs below reuse its memory

	// 3. The composed scenarios, as data.
	for _, mk := range []struct {
		name  string
		build func(int) workload.Scenario
	}{
		{"kv-openloop (Poisson arrivals)", workload.KVStoreScenario},
		{"multiphase (warmup -> swap -> mixed drain)", workload.MultiPhaseScenario},
	} {
		res, err := workload.Run(mk.build(8))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s:\n", mk.name)
		for _, ph := range res.Phases {
			swap := ""
			if ph.Swapped {
				swap = "  [RIED swap]"
			}
			fmt.Printf("  phase %-12s %5d msgs, done at %10v%s\n", ph.Name, ph.Executed, ph.End, swap)
		}
		fmt.Printf("  total %d injections in %v simulated -> %s injections/sec\n",
			res.Injections, res.SimTime, perf.FmtRate(res.RatePerSec))
	}
}
