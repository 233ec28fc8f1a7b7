//go:build !race

package job

const raceEnabled = false
