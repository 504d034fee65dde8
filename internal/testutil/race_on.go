//go:build race

package testutil

// RaceEnabled reports whether this binary was built with the race
// detector: timing assertions and allocation counts mean nothing under
// it.
const RaceEnabled = true
