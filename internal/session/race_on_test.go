//go:build race

package session

// raceEnabled: the race detector's instrumentation allocates, so
// allocation pins do not hold under it.
const raceEnabled = true
