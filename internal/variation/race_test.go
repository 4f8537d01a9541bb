//go:build race

package variation

// raceEnabled reports a race-detector build: sync.Pool then drops
// items at random, so pooled-scratch allocation guards cannot hold.
const raceEnabled = true
