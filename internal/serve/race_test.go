//go:build race

package serve

// raceEnabled reports a -race build, whose sync.Pool drops a random
// share of the values Put hands it, so allocation counts vary run to run.
const raceEnabled = true
