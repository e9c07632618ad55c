//go:build race

package simkernel

func init() { raceEnabled = true }
