//go:build race

package gsi

// raceEnabled: under the race detector sync.Pool drops a quarter of its
// Puts on purpose, so allocation pins over pooled buffers do not hold.
const raceEnabled = true
