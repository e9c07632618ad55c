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
//
// Exit codes: 0 for success or -h, 1 for a failed demonstration run (or
// a doctor violation), 2 for a usage error, such as an invalid what-if
// value.
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"repro/cmd/internal/cli"
	"repro/cmd/internal/runobs"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/storage"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command's entry point; see the package comment for its exit
// codes.
func run(args []string, stdout, stderr io.Writer) int {
	return cli.Exit("breakeven", breakeven(args, stdout, stderr), stderr)
}

func breakeven(args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("breakeven", stderr)
	cfg := power.DefaultConfig()
	var (
		idle    = fs.Float64("idle", cfg.IdlePower, "idle power P_I (W)")
		active  = fs.Float64("active", cfg.ActivePower, "active power (W)")
		standby = fs.Float64("standby", cfg.StandbyPower, "standby power (W)")
		eup     = fs.Float64("eup", cfg.SpinUpEnergy, "spin-up energy (J)")
		edown   = fs.Float64("edown", cfg.SpinDownEnergy, "spin-down energy (J)")
		tup     = fs.Duration("tup", cfg.SpinUpTime, "spin-up time")
		tdown   = fs.Duration("tdown", cfg.SpinDownTime, "spin-down time")
		events  = fs.String("events", "", "record the demonstration run's event log to this file (JSONL; .bin = binary)")
		metrics = fs.String("metrics", "", `write the demonstration run's metrics snapshot ("-" = stdout)`)
		doctor  = fs.Bool("doctor", false, "run live invariant monitors over the demonstration run; non-zero exit on any violation")
	)
	var prof obs.Profiles
	prof.RegisterFlagsTraceName(fs, "tracefile")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(stderr, "breakeven: profiles:", err)
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
		return cli.UsageError(err.Error())
	}

	if cfg == power.DefaultConfig() {
		fmt.Fprint(stdout, experiments.Figure5().Render())
	} else {
		fmt.Fprintf(stdout, "idle %.1f W, active %.1f W, standby %.1f W\n", cfg.IdlePower, cfg.ActivePower, cfg.StandbyPower)
		fmt.Fprintf(stdout, "spin-up %.0f J / %s, spin-down %.0f J / %s\n",
			cfg.SpinUpEnergy, cfg.SpinUpTime, cfg.SpinDownEnergy, cfg.SpinDownTime)
	}
	fmt.Fprintf(stdout, "\nderived:\n")
	fmt.Fprintf(stdout, "  breakeven time T_B           %s\n", cfg.Breakeven().Round(time.Millisecond))
	fmt.Fprintf(stdout, "  replacement window T_B+T_up+T_down  %s\n", cfg.ReplacementWindow().Round(time.Millisecond))
	fmt.Fprintf(stdout, "  max per-request energy       %.1f J\n", cfg.MaxRequestEnergy())
	fmt.Fprintf(stdout, "  idle:standby power ratio     %.1fx\n", cfg.IdlePower/cfg.StandbyPower)

	spec := runobs.Spec{Events: *events, Metrics: *metrics, Doctor: *doctor}
	if spec == (runobs.Spec{}) {
		return nil
	}
	return demoRun(stdout, stderr, cfg, spec)
}

// demoRun simulates one disk under the configured model with arrivals
// spaced to straddle the break-even threshold — gap 1 inside T_B (the
// 2CPM policy keeps spinning), gap 2 past the replacement window (it spins
// down and pays the cycle on the next arrival) — and records the run.
func demoRun(stdout, stderr io.Writer, pc power.Config, spec runobs.Spec) error {
	sys := storage.DefaultConfig()
	sys.NumDisks = 1
	sys.Power = pc
	sys.Policy = power.TwoCompetitive{Config: pc}
	loc := func(core.BlockID) []core.DiskID { return []core.DiskID{0} }

	short := pc.Breakeven() / 2
	long := 2 * cfgWindow(pc)
	var reqs []core.Request
	at := time.Duration(0)
	for i, gap := range []time.Duration{0, short, short, long, short, long, short} {
		at += gap
		reqs = append(reqs, core.Request{ID: core.RequestID(i), Block: 0, Arrival: at})
	}

	obsSet, err := runobs.Open("breakeven", stdout, stderr, spec, sys, loc, nil)
	if err != nil {
		return err
	}
	res, runErr := storage.RunOnline(sys, loc, sched.Static{Locations: loc}, reqs, obsSet.Options()...)
	if runErr == nil {
		fmt.Fprintf(stdout, "\ndemonstration run (1 disk, %d requests straddling T_B):\n", len(reqs))
		fmt.Fprintf(stdout, "  energy %.1f J, %d spin-ups, %d spin-downs\n", res.Energy, res.SpinUps, res.SpinDowns)
	}
	return obsSet.Close(runErr)
}

// cfgWindow is the replacement window, floored at one second so degenerate
// what-if configurations still produce a finite demonstration.
func cfgWindow(pc power.Config) time.Duration {
	if w := pc.ReplacementWindow(); w > time.Second {
		return w
	}
	return time.Second
}
