//go:build race

package extract

// raceEnabled reports a race-detector build: sync.Pool then drops
// items at random, so pooled-workspace byte budgets cannot hold.
const raceEnabled = true
