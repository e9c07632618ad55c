//go:build race

package placement

func init() { raceEnabled = true }
