//go:build !race

package twochains_test

const raceEnabled = false
