//go:build race

package tota_test

// raceEnabled reports a -race build. sync.Pool drops items at random
// under the race detector, so exact allocation counts hold only
// without it.
const raceEnabled = true
