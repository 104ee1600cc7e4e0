//go:build race

package model

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = true
