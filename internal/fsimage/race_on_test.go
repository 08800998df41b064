//go:build race

package fsimage

// raceEnabled reports whether the race detector is compiled in; allocation
// counts skip under it (instrumentation allocates, and sync.Pool drops
// items at random).
const raceEnabled = true
