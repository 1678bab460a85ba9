package tc

import (
	"errors"
	"fmt"

	"twochains/internal/core"
	"twochains/internal/sim"
	"twochains/internal/tenant"
)

// RetryPolicy is the issuer-side resilience knob for WithRetry: how many
// issue attempts a Call gets and how they back off. All delays are
// simulated time, so retrying runs replay bit-identically for equal
// seeds.
type RetryPolicy struct {
	// Attempts is the total issue-attempt budget (including the first);
	// values below 1 behave as 1.
	Attempts int
	// Backoff is the delay before the first retry, doubling on each
	// subsequent one. Zero retries at the same simulated instant — which
	// exhausts the budget without letting simulated time advance, so any
	// policy meant to ride out a failure window wants Backoff > 0.
	Backoff sim.Duration
}

// delay returns the backoff before retry number attempt (0-based: the
// delay after the first failed attempt is delay(0) == Backoff).
func (p RetryPolicy) delay(attempt int) sim.Duration {
	return p.Backoff << attempt
}

// RetryError reports a Call whose retry policy was exhausted: every
// attempt failed with a retryable error. It surfaces through
// Future.IssueErr, wrapping the last attempt's error for errors.As /
// errors.Is inspection.
type RetryError struct {
	// Attempts counts the issue attempts actually made.
	Attempts int
	// Elapsed is the simulated time spent between the first attempt and
	// the final failure.
	Elapsed sim.Duration
	// Last is the final attempt's error.
	Last error
}

func (e *RetryError) Error() string {
	return fmt.Sprintf("tc: retry exhausted after %d attempts (%v of sim time): %v",
		e.Attempts, e.Elapsed, e.Last)
}

//tclint:allow deadexport errors.As and errors.Is call it through an interface inside package errors
func (e *RetryError) Unwrap() error { return e.Last }

// retryable reports whether an issue error is worth re-attempting under
// a retry policy: a failed/severed node (it may rejoin) or a deferred
// tenant admission (the bucket refills; the error names when).
func retryable(err error) (retry bool, after sim.Duration) {
	var nd *core.NodeDownError
	if errors.As(err, &nd) {
		return true, 0
	}
	var ae *tenant.AdmissionError
	if errors.As(err, &ae) && ae.Deferred {
		return true, ae.RetryAfter
	}
	return false, 0
}
