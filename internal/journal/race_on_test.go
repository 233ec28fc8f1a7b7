//go:build race

package journal

// raceEnabled: the race detector instruments allocations of its own, so
// allocation pins do not hold under it.
const raceEnabled = true
