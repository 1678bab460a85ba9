package tc

import (
	"testing"

	"twochains/internal/core"
	"twochains/internal/sim"
)

// trafficResult is the observable outcome of one driver run: the per-node
// execution digests and the final simulated time.
type trafficResult struct {
	digest  uint64
	simTime sim.Time
	execs   int
}

// runTraffic drives an identical mixed workload — inject singles, inject
// bursts, local singles, local bursts, plus a RIED hot-swap phase —
// through either the channel-level core.Bound handles (resolved by
// string per call via Channel.Handle) or the system-level Func/Call API,
// on identically seeded systems. The two surfaces must be
// indistinguishable: same digests, same simulated times.
func runTraffic(t *testing.T, legacy bool) trafficResult {
	t.Helper()
	const nodes = 4
	sys, err := NewSystem(nodes, WithSeed(0x7c2c2021), WithTiming(true))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := core.BuildBenchPackage()
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.InstallPackage(pkg); err != nil {
		t.Fatal(err)
	}
	var res trafficResult
	digests := make([]uint64, nodes)
	for i := 0; i < nodes; i++ {
		node := i
		sys.Node(i).OnExecuted = func(ret uint64, _ sim.Duration, err error) {
			if err != nil {
				t.Errorf("node %d handler: %v", node, err)
				return
			}
			res.execs++
			digests[node] = digests[node]*1099511628211 + ret + 1
		}
	}

	payload := []byte("equivalence payload")
	batch := [][2]uint64{{3, 0}, {9, 0}, {27, 0}, {81, 0}}

	phase1 := func() {
		for src := 0; src < nodes; src++ {
			for dst := 0; dst < nodes; dst++ {
				if dst == src {
					continue
				}
				if legacy {
					ch, err := sys.Channel(src, dst)
					if err != nil {
						t.Fatal(err)
					}
					must(t, ch.Handle("tcbench", "jam_iput").Send(false, payload, nil, [2]uint64{5, 0}))
					must(t, ch.Handle("tcbench", "jam_sssum").Send(false, payload, nil, batch...))
					must(t, ch.Handle("tcbench", "jam_sssum").Send(true, payload, nil, [2]uint64{1, 0}))
					must(t, ch.Handle("tcbench", "jam_iput").Send(true, payload, nil, batch...))
				} else {
					iput, err := sys.Func(src, "tcbench", "jam_iput")
					if err != nil {
						t.Fatal(err)
					}
					sssum, err := sys.Func(src, "tcbench", "jam_sssum")
					if err != nil {
						t.Fatal(err)
					}
					mustFu(t, iput.Call(dst, [2]uint64{5, 0}, Payload(payload)))
					mustFu(t, sssum.Call(dst, batch[0], Burst(batch), Payload(payload)))
					mustFu(t, sssum.Call(dst, [2]uint64{1, 0}, Local(), Payload(payload)))
					mustFu(t, iput.Call(dst, batch[0], Local(), Burst(batch), Payload(payload)))
				}
			}
		}
	}
	phase1()
	sys.Run()

	// Hot-swap phase: replace node 1's server RIED and re-exchange; both
	// paths must re-bind and keep producing identical results.
	spkg, err := core.BuildPackage("kvbench-swap", map[string]string{
		"ried_kvbench.rds": core.RiedKVBenchSrc,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range spkg.Elements {
		if e.Kind != core.ElemRied {
			continue
		}
		if _, err := sys.InstallRied(1, e.Ried, true); err != nil {
			t.Fatal(err)
		}
	}
	sys.RefreshNames(1)
	if legacy {
		ch, err := sys.Channel(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		must(t, ch.Handle("tcbench", "jam_iput").Send(false, payload, nil, [2]uint64{7, 0}))
		must(t, ch.Handle("tcbench", "jam_iput").Send(false, payload, nil, batch...))
	} else {
		iput, err := sys.Func(0, "tcbench", "jam_iput")
		if err != nil {
			t.Fatal(err)
		}
		mustFu(t, iput.Call(1, [2]uint64{7, 0}, Payload(payload)))
		mustFu(t, iput.Call(1, batch[0], Burst(batch), Payload(payload)))
	}
	sys.Run()

	for _, d := range digests {
		res.digest += d // order-insensitive across nodes
	}
	res.simTime = sys.Now()
	return res
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func mustFu(t *testing.T, fu *Future) {
	t.Helper()
	if res, ok := fu.Result(); ok && res.Err != nil {
		t.Fatal(res.Err)
	}
}

// TestLegacyHandleEquivalence pins the acceptance criterion of the API
// redesign: the channel-level Bound quartet and the handle-based Call
// path produce identical digests and identical simulated times for a
// fixed seed — the Func machinery changes resolution cost, never wire
// behaviour.
func TestLegacyHandleEquivalence(t *testing.T) {
	legacy := runTraffic(t, true)
	handle := runTraffic(t, false)
	if legacy.execs == 0 {
		t.Fatal("no executions observed")
	}
	if legacy.execs != handle.execs {
		t.Fatalf("execution counts differ: legacy %d, handle %d", legacy.execs, handle.execs)
	}
	if legacy.digest != handle.digest {
		t.Fatalf("digests differ: legacy %#x, handle %#x", legacy.digest, handle.digest)
	}
	if legacy.simTime != handle.simTime {
		t.Fatalf("simulated times differ: legacy %v, handle %v",
			sim.Duration(legacy.simTime), sim.Duration(handle.simTime))
	}
}

// TestHandlePathDeterministic: two runs of the handle path replay
// bit-identically.
func TestHandlePathDeterministic(t *testing.T) {
	a := runTraffic(t, false)
	b := runTraffic(t, false)
	if a != b {
		t.Fatalf("handle path not deterministic: %+v vs %+v", a, b)
	}
}
