//go:build race

package partition

// raceEnabled reports a -race build, where sync.Pool drops a random
// quarter of what is put back, so pooled reuse cannot be counted.
const raceEnabled = true
