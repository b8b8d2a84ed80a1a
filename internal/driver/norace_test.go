//go:build !race

package driver

// raceEnabled reports a -race build.
const raceEnabled = false
