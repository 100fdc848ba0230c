//go:build !race

package tota_test

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
