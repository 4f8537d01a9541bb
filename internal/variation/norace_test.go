//go:build !race

package variation

const raceEnabled = false
