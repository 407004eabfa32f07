//go:build race

package engine

func init() { raceDetector = true }
