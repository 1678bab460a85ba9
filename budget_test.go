package twochains_test

import (
	"runtime"
	"testing"
	"time"

	"twochains/internal/workload"
)

// budgetToolchain is the Go release the budgets below were captured
// with. Allocation counts belong to the code and to the toolchain: a
// release that inlines or escapes differently moves them.
const budgetToolchain = "go1.24.0"

// runBudgets are the exact allocation counts and byte ceilings of one
// warm workload.Run of three benchmark shapes.
var runBudgets = []struct {
	name   string
	sc     workload.Scenario
	allocs float64
	bytes  uint64
}{
	{"MeshAllToAll", meshScenario(workload.AllToAll, 8, 0), 4171, 828000},
	{"KVStoreOpenLoop", workload.KVStoreScenario(8), 3811, 681176},
	{"MultiTenantOverload", workload.OverloadScenario(4, 4), 4814, 762048},
}

// TestWorkBudgets is the exact, host-independent gate on the work an
// injection costs the simulator. One warm workload.Run of each
// runBudgets shape must make exactly its pinned number of allocations
// and allocate at most its pinned bytes plus 1 %, and so must one run
// right after a garbage collection, which empties every sync.Pool (fmt's
// printer cache among them); after 1,000 warm calls, 1,000 more calls of
// either invokePath loop, or 1,000 more dataPath sends (System.SendData,
// each followed by Run), must make none. A count that falls is re-pinned
// in the change that made it fall.
//
// The regressions this gate exists for, each once seen on the mesh
// all-to-all:
//   - a compile or decode back on the delivery path: 7,550 to 299,184 allocations;
//   - library text translated and packages rebuilt per run: 12,785 against 4,945 allocations;
//   - every node's 8 MB address-space backing allocated and zeroed per run: 86 MB;
//   - a second per-way array grown beside each cache's tags: 20.7 against 15.5 MB;
//   - every node's 1.28 MB of cache tags allocated per run: 15.5 against 3.3 MB.
//
// The race detector allocates on its own account (4,634 and more on the
// mesh), so the test is skipped under -race.
func TestWorkBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	repin := "; budgets were captured with " + budgetToolchain + " and this is " + runtime.Version() +
		": re-pin them on a toolchain change, and re-pin one that falls"
	for _, b := range runBudgets {
		t.Run(b.name, func(t *testing.T) {
			run := func() {
				if _, err := workload.Run(b.sc); err != nil {
					t.Fatal(err)
				}
			}
			if got := testing.AllocsPerRun(1, run); got != b.allocs {
				t.Errorf("%.0f allocations per run, budget %.0f%s", got, b.allocs, repin)
			}
			if got := allocsAfterGC(run); got != b.allocs {
				t.Errorf("%.0f allocations in a run right after a GC, budget %.0f%s", got, b.allocs, repin)
			}
			if got, limit := bytesPerRun(run), b.bytes+b.bytes/100; got > limit {
				t.Errorf("%d bytes per run, budget %d (%d + 1 %%)%s", got, limit, b.bytes, repin)
			}
		})
	}
	for _, path := range []struct {
		name string
		step func(testing.TB) func(i int)
	}{
		{"FuncCall", func(tb testing.TB) func(int) { return invokePath(tb, true) }},
		{"StringInject", func(tb testing.TB) func(int) { return invokePath(tb, false) }},
		{"SendData", dataPath},
	} {
		t.Run(path.name, func(t *testing.T) {
			call := path.step(t)
			i := 0
			calls := func() {
				for end := i + 1000; i < end; i++ {
					call(i)
				}
			}
			if got := testing.AllocsPerRun(1, calls); got != 0 {
				t.Errorf("%.0f allocations in 1,000 warm calls, budget 0%s", got, repin)
			}
		})
	}
}

// bytesPerRun returns the bytes f allocates, measured as
// testing.AllocsPerRun measures allocations: on one P.
func bytesPerRun(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocsAfterGC returns the allocations f makes when it runs right after
// a garbage collection, on one P. The millisecond's sleep lets the
// runtime's own work after a collection (its scavenger resetting a
// timer, an M started for the collection), which allocates on the
// runtime's account, land before the count starts rather than in it.
func allocsAfterGC(f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	time.Sleep(time.Millisecond)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}
