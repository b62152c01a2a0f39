//go:build !race

package obs

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
