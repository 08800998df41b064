//go:build race

package main

// raceEnabled reports whether the race detector is compiled in; memory
// ceilings are skipped under it.
const raceEnabled = true
