//go:build !race

package dacmodel

const raceEnabled = false
