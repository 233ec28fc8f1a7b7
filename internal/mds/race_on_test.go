//go:build race

package mds

// raceEnabled: under the race detector sync.Pool drops a quarter of its
// Puts on purpose, so allocation pins over pooled scratch do not hold.
const raceEnabled = true
