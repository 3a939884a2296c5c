//go:build race

package mpmd_test

// raceEnabled reports a -race build. The race detector makes sync.Pool drop
// a share of its Puts on purpose, so allocation counts measure nothing.
const raceEnabled = true
