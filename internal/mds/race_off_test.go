//go:build !race

package mds

const raceEnabled = false
