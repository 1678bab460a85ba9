// Fixture: nondeterminism sources inside a simulation package (this
// fixture claims the sim package path to opt into the detsource scope).
package fixture

import (
	"math/rand"
	"time"
)

func wallClock() int64 {
	t := time.Now()    // want `wall-clock time\.Now in a simulation package`
	d := time.Since(t) // want `wall-clock time\.Since in a simulation package`
	return int64(d)
}

func globalRand() int {
	return rand.Intn(4) // want `global math/rand source \(rand\.Intn\)`
}

func shuffled(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want `global math/rand source \(rand\.Shuffle\)`
}

func emitUnsorted(m map[int]int, emit func(int)) {
	for k := range m { // want `map iteration with side effects in a simulation package`
		emit(k)
	}
}

func sendUnsorted(m map[int]int, ch chan int) {
	for k := range m { // want `map iteration with side effects in a simulation package`
		ch <- k
	}
}

func straySpawn(work func()) {
	go work() // want `go statement in a simulation package`
}
