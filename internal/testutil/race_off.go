//go:build !race

// Package testutil holds what tests of more than one package share.
package testutil

// RaceEnabled reports whether this binary was built with the race
// detector: timing assertions and allocation counts mean nothing under
// it.
const RaceEnabled = false
