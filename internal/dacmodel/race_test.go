//go:build race

package dacmodel

// raceEnabled reports a race-detector build, under which the oracle
// tests skip their 10- and 12-bit layouts.
const raceEnabled = true
