//go:build !race

package chain

// raceDetector reports a -race build (see race_test.go).
const raceDetector = false
