package power_test

import (
	"fmt"

	"repro/internal/power"
)

// The breakeven threshold of the default power model, the quantity 2CPM is
// built on.
func ExampleConfig_Breakeven() {
	cfg := power.DefaultConfig()
	fmt.Printf("T_B = E_up/down / P_I = %.0f J / %.1f W = %.1f s\n",
		cfg.UpDownEnergy(), cfg.IdlePower, cfg.Breakeven().Seconds())
	// Output: T_B = E_up/down / P_I = 148 J / 9.3 W = 15.9 s
}
