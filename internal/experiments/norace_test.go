//go:build !race

package experiments

// raceEnabled reports a -race build, where sync.Pool drops a random
// quarter of what is put back, so the pooled reuse inside partition.Cut
// cannot be counted exactly.
const raceEnabled = false
