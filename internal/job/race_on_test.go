//go:build race

package job

// raceEnabled: the race detector's instrumentation allocates, so
// allocation pins do not hold under it.
const raceEnabled = true
