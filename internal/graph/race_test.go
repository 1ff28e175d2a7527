//go:build race

package graph

func init() { raceEnabled = true }
