//go:build race

package cpu

func init() { raceDetector = true }
