package workload

// Composed scenarios over the tcapp application packages. These are the
// stock demonstrations of the Traffic/Phase surface — plain data, built
// by ordinary functions — and double as the perf-trajectory points for
// the widened workload surface (cmd/tcperf -e scenarios and the root
// package's BenchmarkKVStoreOpenLoop, BenchmarkMultiPhaseMix and
// BenchmarkMultiTenantOverload).

// KVStoreMix is the standard kvstore traffic: mostly puts, some gets,
// an occasional scan.
func KVStoreMix() []ElementMix {
	return []ElementMix{
		{Pkg: "kvstore", Elem: "jam_kv_put", Weight: 4},
		{Pkg: "kvstore", Elem: "jam_kv_get", Weight: 3},
		{Pkg: "kvstore", Elem: "jam_kv_scan", Weight: 1},
		{Pkg: "kvstore", Elem: "jam_kv_get", Weight: 1, Local: true},
	}
}

// KVStoreScenario is the open-loop composed scenario: every node offers
// kvstore traffic to every other node at Poisson arrivals, so queueing
// under offered load (credit stalls included) is part of the
// measurement rather than hidden by self-clocking.
func KVStoreScenario(nodes int) Scenario {
	return Scenario{
		Pattern:      AllToAll,
		Nodes:        nodes,
		Burst:        4,
		Rounds:       2,
		PayloadBytes: 32,
		Seed:         0x7c2c2024,
		Timing:       true,
		Phases: []Phase{{
			Name:       "kv-openloop",
			Arrival:    &Arrival{Kind: Poisson, RatePerSec: 250_000},
			Mix:        KVStoreMix(),
			Arg1Random: true, // puts carry a drawn value word
		}},
	}
}

// OverloadBaseRate is the per-sender Poisson rate (bursts/sec) that
// OverloadScenario calls 1x offered load. It is calibrated so that at
// mult = 1 the fabric keeps up and past mult ~= 2 the receivers are the
// bottleneck — overload behaviour (weighted-fair shares, credit-stall
// queueing) dominates the measurement.
const OverloadBaseRate = 120_000.0

// OverloadScenario is the stock multi-tenant overload composition: two
// tenants — "gold" (weight 3) and "bronze" (weight 1) — offer identical
// all-to-all tcbench traffic open-loop at mult times the calibrated 1x
// rate. Under overload the weighted-fair receivers should service them
// 3:1 inside the overlap window regardless of arrival interleaving;
// Result.Tenants reports each tenant's goodput, p99 simulated latency,
// and drop/defer counts (zero here — admission is left off so the fair
// queue, not the issue path, is the mechanism under test).
func OverloadScenario(nodes int, mult float64) Scenario {
	if mult <= 0 {
		mult = 1
	}
	return Scenario{
		Pattern:      AllToAll,
		Nodes:        nodes,
		Burst:        4,
		Rounds:       12,
		PayloadBytes: 32,
		Seed:         0x7c2c2025,
		Timing:       true,
		Phases: []Phase{{
			Name:    "overload",
			Arrival: &Arrival{Kind: Poisson, RatePerSec: OverloadBaseRate * mult},
			Mix:     []ElementMix{{Elem: "jam_iput", Weight: 1}},
		}},
		Tenants: []TenantSpec{
			{Name: "gold", Weight: 3},
			{Name: "bronze", Weight: 1},
		},
	}
}

// MultiPhaseScenario is the multi-phase, multi-package composed
// scenario: a tcbench all-to-all warmup, then a fanout phase that opens
// with a RIED swap on node 1 (the remote-linking dynamic update as
// phase data), then a skewed drain mixing kvstore and histo traffic
// with tcbench Local Function calls — three packages on the wire in one
// phase.
func MultiPhaseScenario(nodes int) Scenario {
	return Scenario{
		Pattern:      Hotspot, // default traffic for phases that don't name one
		Nodes:        nodes,
		Burst:        6,
		Rounds:       2,
		PayloadBytes: 48,
		Seed:         0x7c2c2024,
		Timing:       true,
		DisableSwap:  true, // the swap is phase data below, not the hotspot builtin
		Phases: []Phase{
			{
				Name:    "warmup",
				Traffic: string(AllToAll),
				Rounds:  1,
				Mix:     DefaultMix(),
			},
			{
				Name:    "swap",
				Traffic: string(Fanout),
				Swap:    &Swap{Node: 1, App: "tcbench"},
				Mix: []ElementMix{
					{Elem: "jam_iput", Weight: 1},
				},
			},
			{
				Name:       "drain",
				Arg1Random: true,
				Mix: []ElementMix{
					{Pkg: "kvstore", Elem: "jam_kv_put", Weight: 3},
					{Pkg: "kvstore", Elem: "jam_kv_get", Weight: 2},
					{Pkg: "histo", Elem: "jam_hist_add", Weight: 2},
					{Pkg: "histo", Elem: "jam_hist_sum", Weight: 1},
					{Pkg: "tcbench", Elem: "jam_sssum", Weight: 1, Local: true},
				},
			},
		},
	}
}
