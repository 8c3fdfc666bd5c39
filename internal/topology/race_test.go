//go:build race

package topology

// raceEnabled reports a -race build, whose runtime makes allocations of
// its own, so allocation counts vary from run to run.
const raceEnabled = true
