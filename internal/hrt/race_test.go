//go:build race

package hrt

func init() { raceDetector = true }
