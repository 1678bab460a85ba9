//go:build race

package workload

// raceEnabled reports a -race build, where runPins skips its 64-node pins.
const raceEnabled = true
