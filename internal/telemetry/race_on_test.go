//go:build race

package telemetry

// raceEnabled: the race detector's bookkeeping allocates, so allocation
// pins do not hold under it.
const raceEnabled = true
