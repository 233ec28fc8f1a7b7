//go:build !race

package xrsl

const raceEnabled = false
