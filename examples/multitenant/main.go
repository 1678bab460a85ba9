// Multitenant: per-tenant package namespaces, admission control, and
// weighted-fair servicing over one shared fabric.
//
// Two tenants — "gold" (weight 3, trusted) and "bronze" (weight 1,
// metered by a token bucket) — install *different versions of the same
// app* on the same nodes. Each tenant's calls bind against its own
// package instance (no element-ID or namespace collision), the bronze
// bucket sheds calls past its burst, and a quick overload run shows the
// weighted-fair receivers splitting the serviced throughput 3:1.
package main

import (
	"errors"
	"fmt"
	"log"

	"twochains/internal/core"
	"twochains/internal/sim"
	"twochains/internal/tc"
	"twochains/internal/tenant"
	"twochains/internal/workload"
)

// Two versions of the "pricing" app: v1 charges 10 units per item, the
// gold build got the discounted v2 at 7 per item.
func pricing(rate string) *core.Package {
	pkg, err := core.BuildPackage("pricing", map[string]string{
		"jam_quote.amc": `
long jam_quote(long* args, byte* usr, long len) {
    return args[0] * ` + rate + `;
}
`,
	})
	if err != nil {
		log.Fatal(err)
	}
	return pkg
}

func main() {
	const client, server = 0, 1
	sys, err := tc.NewSystem(2)
	if err != nil {
		log.Fatal(err)
	}

	// Tenant registration order fixes the fair-queue class IDs.
	if _, err := sys.AddTenant(tenant.Config{Name: "gold", Weight: 3}); err != nil {
		log.Fatal(err)
	}
	if _, err := sys.AddTenant(tenant.Config{Name: "bronze", Weight: 1,
		Admission: &tenant.Admission{RatePerSec: 500_000, Burst: 3}}); err != nil {
		log.Fatal(err)
	}

	// Same app name, different versions, same nodes: each install lands
	// in the tenant's own namespace view.
	if err := sys.InstallPackageFor("gold", pricing("7")); err != nil {
		log.Fatal(err)
	}
	if err := sys.InstallPackageFor("bronze", pricing("10")); err != nil {
		log.Fatal(err)
	}

	fmt.Println("== per-tenant versions of one app ==")
	for _, name := range []string{"gold", "bronze"} {
		quote, err := sys.FuncFor(name, client, "pricing", "jam_quote")
		if err != nil {
			log.Fatal(err)
		}
		n := name
		sys.Node(server).OnExecuted = func(ret uint64, _ sim.Duration, err error) {
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-6s jam_quote(12) = %d\n", n, ret)
		}
		if _, err := quote.Call(server, [2]uint64{12, 0}).Await(); err != nil {
			log.Fatal(err)
		}
		// Await returns at delivery; Run drains the execution event while
		// this tenant's reporting hook is still armed.
		sys.Run()
	}
	sys.Node(server).OnExecuted = nil

	fmt.Println("== token-bucket admission ==")
	// A fresh metered tenant so the bucket starts full: 3 tokens, so a
	// burst of 6 back-to-back calls sheds exactly half.
	if _, err := sys.AddTenant(tenant.Config{Name: "trial", Weight: 1,
		Admission: &tenant.Admission{RatePerSec: 500_000, Burst: 3}}); err != nil {
		log.Fatal(err)
	}
	if err := sys.InstallPackageFor("trial", pricing("15")); err != nil {
		log.Fatal(err)
	}
	trialQuote, err := sys.FuncFor("trial", client, "pricing", "jam_quote")
	if err != nil {
		log.Fatal(err)
	}
	admitted, dropped := 0, 0
	for i := 0; i < 6; i++ {
		fu := trialQuote.Call(server, [2]uint64{uint64(i), 0})
		var ae *tenant.AdmissionError
		if err := fu.IssueErr(); errors.As(err, &ae) {
			dropped++
			continue
		} else if err != nil {
			log.Fatal(err)
		}
		admitted++
	}
	sys.Run()
	fmt.Printf("  burst of 6 calls against a 3-token bucket: %d admitted, %d dropped\n",
		admitted, dropped)
	sys.Close() // done with this system: the scenario run below reuses its memory

	fmt.Println("== weighted-fair servicing at 4x overload ==")
	res, err := workload.Run(workload.OverloadScenario(4, 4))
	if err != nil {
		log.Fatal(err)
	}
	for _, tr := range res.Tenants {
		fmt.Printf("  %-6s w=%d  goodput %8.0f msg/s  p99 %v\n",
			tr.Name, tr.Weight, tr.GoodputPerSec, tr.P99Latency)
	}
	fmt.Printf("  goodput ratio %.2f (weights 3:1), overlap window %v\n",
		res.Tenants[0].GoodputPerSec/res.Tenants[1].GoodputPerSec, res.OverlapWindow)
}
