//go:build !race

package coord

// raceDetector reports a -race build (see race_test.go).
const raceDetector = false
