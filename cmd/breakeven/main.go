// Command breakeven prints the 2CPM power configuration (the paper's
// Figure 5) and the quantities derived from it: the breakeven idleness
// threshold T_B, the replacement window, and the per-request worst-case
// energy. Flags override individual parameters for what-if analysis.
//
// With -events/-metrics the command also simulates a one-disk
// demonstration of the configured model — requests spaced around the
// break-even threshold so the 2CPM policy's spin cycles are visible — and
// records it through the standard observability layer (analyze the log
// with tracelens; see docs/OBSERVABILITY.md). -doctor runs the same
// demonstration under live invariant monitoring and exits non-zero on any
// violation. The shared profiling flags
// -cpuprofile, -memprofile, -tracefile and -pprof are available for
// parity with esched and figures.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro"
	"repro/cmd/internal/runobs"
	"repro/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "breakeven:", err)
		os.Exit(1)
	}
}

func run() error {
	cfg := repro.DefaultPowerConfig()
	var (
		idle    = flag.Float64("idle", cfg.IdlePower, "idle power P_I (W)")
		active  = flag.Float64("active", cfg.ActivePower, "active power (W)")
		standby = flag.Float64("standby", cfg.StandbyPower, "standby power (W)")
		eup     = flag.Float64("eup", cfg.SpinUpEnergy, "spin-up energy (J)")
		edown   = flag.Float64("edown", cfg.SpinDownEnergy, "spin-down energy (J)")
		tup     = flag.Duration("tup", cfg.SpinUpTime, "spin-up time")
		tdown   = flag.Duration("tdown", cfg.SpinDownTime, "spin-down time")
		events  = flag.String("events", "", "record the demonstration run's event log to this file (JSONL; .bin = binary)")
		metrics = flag.String("metrics", "", `write the demonstration run's metrics snapshot ("-" = stdout)`)
		doctor  = flag.Bool("doctor", false, "run live invariant monitors over the demonstration run; non-zero exit on any violation")
	)
	var prof repro.Profiles
	prof.RegisterFlagsTraceName(flag.CommandLine, "tracefile")
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "breakeven: profiles:", err)
		}
	}()

	cfg.IdlePower = *idle
	cfg.ActivePower = *active
	cfg.StandbyPower = *standby
	cfg.SpinUpEnergy = *eup
	cfg.SpinDownEnergy = *edown
	cfg.SpinUpTime = *tup
	cfg.SpinDownTime = *tdown
	if err := cfg.Validate(); err != nil {
		return err
	}

	if cfg == repro.DefaultPowerConfig() {
		fmt.Print(experiments.Figure5().Render())
	} else {
		fmt.Printf("idle %.1f W, active %.1f W, standby %.1f W\n", cfg.IdlePower, cfg.ActivePower, cfg.StandbyPower)
		fmt.Printf("spin-up %.0f J / %s, spin-down %.0f J / %s\n",
			cfg.SpinUpEnergy, cfg.SpinUpTime, cfg.SpinDownEnergy, cfg.SpinDownTime)
	}
	fmt.Printf("\nderived:\n")
	fmt.Printf("  breakeven time T_B           %s\n", cfg.Breakeven().Round(time.Millisecond))
	fmt.Printf("  replacement window T_B+T_up+T_down  %s\n", cfg.ReplacementWindow().Round(time.Millisecond))
	fmt.Printf("  max per-request energy       %.1f J\n", cfg.MaxRequestEnergy())
	fmt.Printf("  idle:standby power ratio     %.1fx\n", cfg.IdlePower/cfg.StandbyPower)

	spec := runobs.Spec{Events: *events, Metrics: *metrics, Doctor: *doctor}
	if spec == (runobs.Spec{}) {
		return nil
	}
	return demoRun(cfg, spec)
}

// demoRun simulates one disk under the configured model with arrivals
// spaced to straddle the break-even threshold — gap 1 inside T_B (the
// 2CPM policy keeps spinning), gap 2 past the replacement window (it spins
// down and pays the cycle on the next arrival) — and records the run.
func demoRun(pc repro.PowerConfig, spec runobs.Spec) error {
	sys := repro.DefaultSystemConfig()
	sys.NumDisks = 1
	sys.Power = pc
	sys.Policy = repro.TwoCompetitivePolicy(pc)
	loc := func(repro.BlockID) []repro.DiskID { return []repro.DiskID{0} }

	short := pc.Breakeven() / 2
	long := 2 * cfgWindow(pc)
	var reqs []repro.Request
	at := time.Duration(0)
	for i, gap := range []time.Duration{0, short, short, long, short, long, short} {
		at += gap
		reqs = append(reqs, repro.Request{ID: repro.RequestID(i), Block: 0, Arrival: at})
	}

	obsSet, err := runobs.Open("breakeven", spec, sys, loc, nil)
	if err != nil {
		return err
	}
	res, runErr := repro.RunOnline(sys, loc, repro.NewStaticScheduler(loc), reqs, obsSet.Options()...)
	if runErr == nil {
		fmt.Printf("\ndemonstration run (1 disk, %d requests straddling T_B):\n", len(reqs))
		fmt.Printf("  energy %.1f J, %d spin-ups, %d spin-downs\n", res.Energy, res.SpinUps, res.SpinDowns)
	}
	return obsSet.Close(runErr)
}

// cfgWindow is the replacement window, floored at one second so degenerate
// what-if configurations still produce a finite demonstration.
func cfgWindow(pc repro.PowerConfig) time.Duration {
	if w := pc.ReplacementWindow(); w > time.Second {
		return w
	}
	return time.Second
}
