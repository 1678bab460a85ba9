package workload

import (
	"strings"
	"sync"
	"testing"

	"twochains/internal/mem"
)

// Run owns the system it builds: whichever way it returns, every node's
// address-space backing must have gone onto the shelf (tc.System.Close).
// The observable is mem's shelf counter: one release per node per Run.
func TestRunReleasesOnEveryReturn(t *testing.T) {
	for _, tc := range []struct {
		name    string
		traffic Pattern
		wantErr string // "" = the run succeeds
	}{
		{"success", AllToAll, ""},
		{"plan rejected after NewSystem", "test-oob", "emit to node"},
		{"issueErr", "test-selfloop", "self-loop"},
		{"swapErr", "test-badswap", "test-no-such-app"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := DefaultScenario(tc.traffic, 3)
			before := mem.BackingPoolStats().Released
			_, err := Run(sc)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatal(err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("Run error = %v, want one mentioning %q", err, tc.wantErr)
			}
			if n := mem.BackingPoolStats().Released - before; n != uint64(sc.Nodes) {
				t.Errorf("Run released %d address-space backings, want %d (one per node)", n, sc.Nodes)
			}
		})
	}
}

// TestRunConcurrentAndSharded exercises the cross-run shelves (mem's
// address-space backings, memsim's tag arrays) from several goroutines at
// once — meaningful under -race: two Runs side by side draw from and
// release into them concurrently. Reuse must not couple runs: each gives
// the digest it gives alone. Simulations share nothing else, which is
// what makes running them side by side safe.
func TestRunConcurrentAndSharded(t *testing.T) {
	sc := DefaultScenario(AllToAll, 4)
	sc.Rounds = 2
	alone, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := Run(sc)
			if err != nil {
				t.Error(err)
				return
			}
			if res.Digest != alone.Digest || res.SimTime != alone.SimTime {
				t.Errorf("concurrent run: digest %#x time %d, alone %#x time %d",
					res.Digest, int64(res.SimTime), alone.Digest, int64(alone.SimTime))
			}
		}()
	}
	wg.Wait()
}
