//go:build race

package obs

// raceEnabled reports a -race build, whose runtime allocates on its own
// and drops a share of sync.Pool puts.
const raceEnabled = true
