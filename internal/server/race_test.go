//go:build race

package server

// raceEnabled reports a race-detector build.
const raceEnabled = true
