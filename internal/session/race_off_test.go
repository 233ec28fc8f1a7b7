//go:build !race

package session

const raceEnabled = false
