package tc

import (
	"errors"
	"testing"

	"twochains/internal/core"
	"twochains/internal/tenant"

	"twochains/internal/sim"
)

func TestRetryPolicyDelay(t *testing.T) {
	uncapped := RetryPolicy{Backoff: 10}
	if d := uncapped.delay(3); d != 80 {
		t.Errorf("uncapped delay(3) = %d, want 80", d)
	}
}

// TestCallFailedNodeSweep is the teardown fail-fast property on a
// four-shard fabric: after FailNode, both a base Func.Call and a tenant
// FuncFor call resolve synchronously with a typed *core.NodeDownError —
// no hang, no untyped string error — and calls to healthy nodes keep
// working. After RejoinNode the same handles recover through lazy
// channel rebuild.
func TestCallFailedNodeSweep(t *testing.T) {
	sys := quickSystem(t, 6, WithShards(4))
	if _, err := sys.AddTenant(tenant.Config{Name: "gold", Weight: 1}); err != nil {
		t.Fatal(err)
	}
	if err := sys.InstallPackageFor("gold", buildCalc(t, "2")); err != nil {
		t.Fatal(err)
	}
	fn, err := sys.Func(0, "tcbench", "jam_iput")
	if err != nil {
		t.Fatal(err)
	}
	tfn, err := sys.FuncFor("gold", 0, "calc", "jam_calc")
	if err != nil {
		t.Fatal(err)
	}
	// Warm both handles so the sweep also proves cached bounds on
	// severed channels re-resolve instead of issuing into the dead
	// node.
	if _, err := fn.Call(1, [2]uint64{1, 0}).Await(); err != nil {
		t.Fatalf("warmup call: %v", err)
	}
	if _, err := tfn.Call(1, [2]uint64{1, 0}).Await(); err != nil {
		t.Fatalf("tenant warmup call: %v", err)
	}
	if _, err := sys.FailNode(1); err != nil {
		t.Fatal(err)
	}
	var nd *core.NodeDownError
	fu := fn.Call(1, [2]uint64{2, 0})
	if err := fu.IssueErr(); !errors.As(err, &nd) {
		t.Fatalf("Call to failed node: err = %v, want *core.NodeDownError", err)
	} else if nd.Node != "n01" {
		t.Fatalf("error blames %q, want n01", nd.Node)
	}
	if err := tfn.Call(1, [2]uint64{2, 0}).IssueErr(); !errors.As(err, &nd) {
		t.Fatalf("FuncFor call to failed node: err = %v, want *core.NodeDownError", err)
	}
	// Calls FROM the failed node are refused too: a dead process
	// issues nothing.
	rev, err := sys.Func(1, "tcbench", "jam_iput")
	if err != nil {
		t.Fatal(err)
	}
	if err := rev.Call(2, [2]uint64{3, 0}).IssueErr(); !errors.As(err, &nd) {
		t.Fatalf("call from failed node: err = %v, want *core.NodeDownError", err)
	}
	// Healthy destinations are unaffected.
	if _, err := fn.Call(2, [2]uint64{4, 0}).Await(); err != nil {
		t.Fatalf("call to healthy node: %v", err)
	}
	if err := sys.RejoinNode(1); err != nil {
		t.Fatal(err)
	}
	if _, err := fn.Call(1, [2]uint64{5, 0}).Await(); err != nil {
		t.Fatalf("call after rejoin: %v", err)
	}
	if _, err := tfn.Call(1, [2]uint64{5, 0}).Await(); err != nil {
		t.Fatalf("tenant call after rejoin: %v", err)
	}
	// Every step above ran on the simulated clock, so the sequence ends
	// at one pinned instant.
	if now := int64(sys.Now()); now != 6230998 {
		t.Errorf("sequence ended at %d, want 6230998", now)
	}
}

// TestRetryRidesOutFailure pins the WithRetry happy path: a call issued
// while the destination is down retries on the simulated clock and
// succeeds once the node rejoins, with no error surfaced.
func TestRetryRidesOutFailure(t *testing.T) {
	sys := quickSystem(t, 3)
	fn, err := sys.Func(0, "tcbench", "jam_iput")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fn.Call(1, [2]uint64{1, 0}).Await(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.FailNode(1); err != nil {
		t.Fatal(err)
	}
	// Rejoin lands at 5µs; backoff retries at 1, 3, 7µs — the third
	// attempt finds the node back.
	sys.Engine().After(5*sim.Microsecond, func() {
		if err := sys.RejoinNode(1); err != nil {
			t.Errorf("rejoin: %v", err)
		}
	})
	fu := fn.Call(1, [2]uint64{2, 0}, WithRetry(RetryPolicy{Attempts: 5, Backoff: sim.Microsecond}))
	if _, err := fu.Await(); err != nil {
		t.Fatalf("retried call did not ride out the failure: %v", err)
	}
	if now := sim.Duration(sys.Now()); now < 7*sim.Microsecond {
		t.Fatalf("retry resolved at %v, before the node was back", now)
	}
}

// TestRetryExhaustion pins the failure shape: when every attempt finds
// the node down, the future fails with a *RetryError that counts the
// attempts and wraps the final *core.NodeDownError.
func TestRetryExhaustion(t *testing.T) {
	sys := quickSystem(t, 3)
	fn, err := sys.Func(0, "tcbench", "jam_iput")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.FailNode(1); err != nil {
		t.Fatal(err)
	}
	fu := fn.Call(1, [2]uint64{1, 0}, WithRetry(RetryPolicy{Attempts: 3, Backoff: sim.Microsecond}))
	_, err = fu.Await()
	var re *RetryError
	if !errors.As(err, &re) {
		t.Fatalf("exhausted retry error = %v, want *RetryError", err)
	}
	if re.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", re.Attempts)
	}
	if re.Elapsed != 3*sim.Microsecond { // 1µs + 2µs of backoff
		t.Fatalf("elapsed = %v, want 3µs", re.Elapsed)
	}
	var nd *core.NodeDownError
	if !errors.As(err, &nd) {
		t.Fatalf("RetryError does not wrap the node-down cause: %v", err)
	}
	if err := fu.IssueErr(); !errors.As(err, &re) {
		t.Fatalf("IssueErr after exhaustion = %v, want *RetryError", err)
	}
}

// TestRetryComposesWithAdmissionDefer pins that a deferred tenant
// admission is retryable under WithRetry, honoring the bucket's
// RetryAfter hint as the backoff floor: the over-burst call waits out
// the refill instead of surfacing the admission error.
func TestRetryComposesWithAdmissionDefer(t *testing.T) {
	sys := quickSystem(t, 2)
	if _, err := sys.AddTenant(tenant.Config{Name: "gold", Weight: 1,
		Admission: &tenant.Admission{RatePerSec: 1000, Burst: 1, Policy: tenant.Defer}}); err != nil {
		t.Fatal(err)
	}
	if err := sys.InstallPackageFor("gold", buildCalc(t, "2")); err != nil {
		t.Fatal(err)
	}
	fn, err := sys.FuncFor("gold", 0, "calc", "jam_calc")
	if err != nil {
		t.Fatal(err)
	}
	if err := fn.Call(1, [2]uint64{1, 0}).IssueErr(); err != nil {
		t.Fatal(err)
	}
	// Bucket drained: an unretried call defers...
	var ae *tenant.AdmissionError
	if err := fn.Call(1, [2]uint64{1, 0}).IssueErr(); !errors.As(err, &ae) {
		t.Fatalf("over-burst call error = %v, want *tenant.AdmissionError", err)
	}
	// ...while a retried one rides the refill hint to completion.
	fu := fn.Call(1, [2]uint64{1, 0}, WithRetry(RetryPolicy{Attempts: 4}))
	if _, err := fu.Await(); err != nil {
		t.Fatalf("retried over-burst call: %v", err)
	}
	if sys.Now() == 0 {
		t.Fatal("retried call resolved without letting simulated time advance to the refill")
	}
}
