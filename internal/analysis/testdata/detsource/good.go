// Fixture (negative twins): the sanctioned forms — seeded rand and sorted
// map snapshots.
package fixture

import (
	"math/rand"
	"sort"
	"time"
)

// seededRand constructs an explicitly seeded stream: legal — only the
// global source is forbidden.
func seededRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// durations as values (no clock read) are fine.
const tick = 10 * time.Microsecond

// collectThenSort is the sanctioned map-iteration shape: the map loop
// only collects into a local, emission walks the sorted slice.
func collectThenSort(m map[int]int, emit func(int)) {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		emit(k)
	}
}
