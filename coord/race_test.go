//go:build race

package coord

// raceDetector reports a -race build: its sync.Pool drops pooled buffers at
// random, so allocation counts stop measuring the data path.
const raceDetector = true
