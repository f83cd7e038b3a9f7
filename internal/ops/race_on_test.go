//go:build race

package ops

// raceEnabled reports a build with the race detector, under which
// sync.Pool drops a random share of what is put back, so pooled scratch
// is reallocated at random and allocation counts vary.
const raceEnabled = true
