//go:build race

package apptest

// raceEnabled reports a race-detector build, under which sync.Pool drops
// a random share of the items put back, so allocation counts of pooled
// code are not stable.
const raceEnabled = true
