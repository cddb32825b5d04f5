//go:build !race

package apptest

const raceEnabled = false
