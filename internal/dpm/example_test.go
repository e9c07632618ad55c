package dpm_test

import (
	"fmt"
	"time"

	"repro/internal/dpm"
	"repro/internal/power"
)

// Single-disk power management: the fixed breakeven threshold is
// 2-competitive against the offline oracle.
func ExampleCompetitiveRatio() {
	cfg := power.DefaultConfig()
	tau := dpm.OptimalThreshold(cfg)
	// The adversarial gap: just past the threshold.
	gaps := []time.Duration{tau + time.Millisecond}
	ratio := dpm.CompetitiveRatio(cfg, gaps, dpm.Fixed{Tau: tau})
	fmt.Printf("worst-case ratio <= 2: %v\n", ratio <= 2)
	// Output: worst-case ratio <= 2: true
}
