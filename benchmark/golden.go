package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// goldenJSON pins, per workload, the base-seed repetition's digest and
// simulated-clock pair at the default seed and full size. They are pure
// functions of the seed: a difference means the model changed, never
// that the simulator got faster or slower.
//
//go:embed golden.json
var goldenJSON []byte

type goldenEntry struct {
	Digest       string  `json:"digest"`
	SimUs        float64 `json:"sim_us"`
	SimInjPerSec float64 `json:"sim_inj_per_sec"`
}

func goldenOf(base repOut) goldenEntry {
	return goldenEntry{
		Digest:       fmt.Sprintf("%#016x", base.digest),
		SimUs:        base.simTime.Microseconds(),
		SimInjPerSec: base.simRate,
	}
}

// goldenMismatch returns the planned operations of the base-seed
// repetition when it differs from golden.json, 0 when it agrees or when
// the run is not the pinned one (another seed, or -quick's shrunken
// scenarios).
func goldenMismatch(c *cfg, name string, base repOut) int {
	if c.seed != defaultSeed || c.quick {
		return 0
	}
	var pinned map[string]goldenEntry
	if err := json.Unmarshal(goldenJSON, &pinned); err != nil {
		return base.planned
	}
	if want, ok := pinned[name]; !ok || want != goldenOf(base) {
		return base.planned
	}
	return 0
}
