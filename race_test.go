//go:build race

package twochains_test

// raceEnabled reports a -race build, where TestWorkBudgets is skipped.
const raceEnabled = true
