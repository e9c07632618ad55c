// Command tracelens is the analysis CLI over the simulator's canonical
// event logs (see docs/OBSERVABILITY.md): it reconstructs request
// lifecycles and per-disk power-state timelines from a recorded run and
// answers the causal questions the live metrics cannot — which scheduler
// decision woke which disk, and what it cost.
//
// Logs are produced by esched -events FILE (JSONL, or binary when FILE
// ends in .bin); both encodings are auto-detected. Subcommands:
//
//	tracelens summary RUN.events
//	    Aggregate view: outcomes, spin activity, energy by state,
//	    latency percentiles.
//	tracelens timeline RUN.events [-disk N] [-max N]
//	    Per-disk power-state segments with per-segment energy and the
//	    causing decision, plus the queue-depth heatmap.
//	tracelens attribute RUN.events [-top N] [-metrics FILE]
//	    The energy waterfall: every joule bucketed into baseline /
//	    idle / service / spin-up / spin-down, spin cycles pinned to the
//	    scheduler decisions that induced them. With -metrics, the
//	    replayed by-state totals are checked bit-exactly against the
//	    run's exported snapshot.
//	tracelens carbon RUN.events [-grid P] [-cost M] [-windows N] [-metrics FILE]
//	    Carbon & cost accounting replayed from the log: the event stream
//	    is integrated against a grid-intensity profile window by window,
//	    reproducing a live -grid run's gCO2e/$ byte-identically (the
//	    carbon gate proves it). With -metrics, the replayed carbon and
//	    cost totals are checked bit-exactly against the run's exported
//	    snapshot.
//	tracelens whatif [-trace T] [-grid P] [-cost M] [-scale small|full]
//	    Consolidation what-if over the cached replication sweep: every
//	    policy re-priced in J / gCO2e / $ at each consolidation ratio
//	    without re-simulation.
//	tracelens diff A.events B.events
//	    Policy-regression report between two runs.
//	tracelens verify RUN.events -metrics FILE
//	    Replays the log through a fresh collector and byte-compares the
//	    render against the exported snapshot: a passing verify proves
//	    the log alone reproduces the run's metrics exactly.
//	tracelens doctor RUN.events [-disks N -blocks N -rf N -z Z -seed N] [-policy P]
//	    Runs every runtime invariant monitor over the log (power-state
//	    machine legality, bit-exact energy conservation, request
//	    conservation, 2CPM threshold compliance, latency sanity — plus
//	    replica validity when the placement parameters are given) and
//	    exits non-zero on any violation.
//	tracelens doctor fidelity
//	    Paper-claims check: regenerates the Cello and Financial1
//	    replication sweeps at the paper's scale under live invariant
//	    monitoring, prints the paper-claims table and exits non-zero
//	    when a claim's verdict differs from its declared status.
//	tracelens shards STATS.json
//	    Per-shard kernel telemetry report over a KernelStats snapshot
//	    (figures -fleet -kernelstats FILE, or a flight dump's
//	    telemetry.json): events, queue ops and high-water marks per
//	    shard, wall-clock attribution (execute / queue ops / stall) and
//	    the straggler shard holding the drain open.
//	tracelens last DIR
//	    Inspect the most recent flight-recorder dump under DIR: trigger,
//	    captured event window, engine telemetry and bundled artifacts.
//
// Exit codes are uniform across subcommands: 0 on success (including -h),
// 1 on an operational failure (unreadable log, violated invariant,
// diverging metrics), 2 on a usage error (unknown subcommand, bad flag,
// wrong arity) with the usage text on stderr.
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"repro/cmd/internal/cli"
	"repro/internal/account"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs/analyze"
	"repro/internal/obs/monitor"
	"repro/internal/placement"
	"repro/internal/power"
	"repro/internal/storage"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

const usageText = `usage: tracelens <summary|timeline|attribute|carbon|whatif|diff|verify|doctor|shards|last> [flags] LOG...
run 'tracelens <subcommand> -h' for flags`

// run is the CLI entry point: it dispatches the subcommand and maps its
// error to the exit code contract documented above.
func run(args []string, stderr io.Writer) int {
	return cli.Exit("tracelens", dispatch(args, stderr), stderr)
}

func dispatch(args []string, stderr io.Writer) error {
	if len(args) == 0 {
		return cli.UsageError(usageText)
	}
	switch cmd, rest := args[0], args[1:]; cmd {
	case "summary":
		return cmdSummary(rest, stderr)
	case "timeline":
		return cmdTimeline(rest, stderr)
	case "attribute":
		return cmdAttribute(rest, stderr)
	case "carbon":
		return cmdCarbon(rest, stderr)
	case "whatif":
		return cmdWhatif(rest, stderr)
	case "diff":
		return cmdDiff(rest, stderr)
	case "verify":
		return cmdVerify(rest, stderr)
	case "doctor":
		if len(rest) > 0 && rest[0] == "fidelity" {
			return cmdDoctorFidelity(rest[1:], stderr)
		}
		return cmdDoctor(rest, stderr)
	case "shards":
		return cmdShards(rest, stderr)
	case "last":
		return cmdLast(rest, stderr)
	case "-h", "-help", "--help", "help":
		fmt.Fprintln(stderr, usageText)
		return nil
	default:
		return cli.Usagef("unknown subcommand %q\n%s", cmd, usageText)
	}
}

// load reads and reconstructs one run log.
func load(path string) (*analyze.Run, error) {
	evs, err := analyze.Load(path)
	if err != nil {
		return nil, err
	}
	if len(evs) == 0 {
		return nil, fmt.Errorf("%s: empty event log", path)
	}
	r, err := analyze.New(evs)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func cmdSummary(args []string, stderr io.Writer) error {
	fs := cli.NewFlagSet("tracelens summary", stderr)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return cli.Usagef("usage: tracelens summary LOG")
	}
	evs, err := analyze.Load(fs.Arg(0))
	if err != nil {
		return err
	}
	if len(evs) == 0 {
		// An empty log is a legitimate capture (a run that recorded nothing
		// yet), not an operational failure: report it and exit 0.
		fmt.Println("events        0 (empty log)")
		return nil
	}
	r, err := analyze.New(evs)
	if err != nil {
		return fmt.Errorf("%s: %w", fs.Arg(0), err)
	}
	s := r.Summarize()
	fmt.Printf("events        %d\n", s.Events)
	fmt.Printf("complete      %v\n", r.Complete())
	fmt.Printf("horizon       %v\n", s.Horizon)
	fmt.Printf("kernel events %d\n", s.Fired)
	fmt.Printf("disks         %d\n", s.Disks)
	fmt.Printf("requests      %d\n", s.Requests)
	fmt.Printf("decisions     %d\n", s.Decisions)
	fmt.Printf("served        %d (cache hits %d)\n", s.Served, s.CacheHits)
	fmt.Printf("dropped       %d\n", s.Dropped)
	fmt.Printf("redispatched  %d\n", s.Redispatched)
	fmt.Printf("spin-ups      %d\n", s.SpinUps)
	fmt.Printf("spin-downs    %d\n", s.SpinDowns)
	fmt.Printf("energy        %.6g J\n", s.Energy)
	for st := core.StateStandby; st <= core.StateSpinDown; st++ {
		fmt.Printf("  %-11s %.6g J\n", st.String(), s.EnergyByState[st])
	}
	lat := r.Latencies()
	if lat.Count() > 0 {
		fmt.Printf("latency       mean %v  p50 %v  p95 %v  p99 %v  max %v\n",
			lat.Mean(), lat.Percentile(50), lat.Percentile(95), lat.Percentile(99), lat.Max())
	}
	return nil
}

func cmdTimeline(args []string, stderr io.Writer) error {
	fs := cli.NewFlagSet("tracelens timeline", stderr)
	disk := fs.Int("disk", -1, "show only this disk (-1 = all)")
	max := fs.Int("max", 0, "show at most this many segments per disk (0 = all)")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return cli.Usagef("usage: tracelens timeline [-disk N] [-max N] LOG")
	}
	r, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	for _, d := range r.DiskOrder {
		if *disk >= 0 && d != core.DiskID(*disk) {
			continue
		}
		t := r.Disks[d]
		fmt.Printf("disk %d: %d segments, %d spin-ups, %d spin-downs, %.6g J, served %d\n",
			d, len(t.Segments), t.SpinUps, t.SpinDowns, t.Energy, t.Served)
		if t.Served > 0 {
			fmt.Printf("  latency mean %v  p95 %v\n", t.Response.Mean(), t.Response.Percentile(95))
		}
		n := len(t.Segments)
		if *max > 0 && n > *max {
			n = *max
		}
		fmt.Printf("  %-14s %-14s %-10s %-14s %14s %10s\n", "start", "end", "state", "duration", "energy J", "cause")
		for _, seg := range t.Segments[:n] {
			end, dur := "open", time.Duration(0)
			if !seg.Open {
				end, dur = seg.End.String(), seg.Duration()
			}
			cause := "-"
			if seg.Cause != 0 {
				cause = fmt.Sprintf("dec %d", seg.Cause)
			}
			fmt.Printf("  %-14v %-14s %-10s %-14v %14.6g %10s\n",
				seg.Start, end, seg.State, dur, seg.EnergyJ(), cause)
		}
		if n < len(t.Segments) {
			fmt.Printf("  ... %d more segments\n", len(t.Segments)-n)
		}
	}
	bounds, rows := r.DepthHeatmap()
	fmt.Printf("\nqueue-depth heatmap (observations per enqueue):\n%-6s", "disk")
	for _, b := range bounds {
		fmt.Printf(" %6.0f", b)
	}
	fmt.Printf(" %6s\n", "+inf")
	for i, d := range r.DiskOrder {
		if *disk >= 0 && d != core.DiskID(*disk) {
			continue
		}
		fmt.Printf("%-6d", d)
		for _, n := range rows[i] {
			fmt.Printf(" %6d", n)
		}
		fmt.Println()
	}
	return nil
}

func cmdAttribute(args []string, stderr io.Writer) error {
	fs := cli.NewFlagSet("tracelens attribute", stderr)
	top := fs.Int("top", 10, "show this many causes (0 = all)")
	metricsFile := fs.String("metrics", "", "check by-state totals bit-exactly against this exported snapshot")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return cli.Usagef("usage: tracelens attribute [-top N] [-metrics FILE] LOG")
	}
	r, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	if !r.Complete() {
		return fmt.Errorf("%s: not a complete run capture; attribution needs the full log", fs.Arg(0))
	}
	a := r.Attribute()
	total := a.Total()
	pct := func(j float64) float64 {
		if total == 0 {
			return 0
		}
		return j / total * 100
	}
	fmt.Printf("energy waterfall (%.6g J total):\n", total)
	fmt.Printf("  %-22s %14s %8s\n", "bucket", "joules", "share")
	fmt.Printf("  %-22s %14.6g %7.2f%%\n", "baseline (standby)", a.BaselineJ, pct(a.BaselineJ))
	fmt.Printf("  %-22s %14.6g %7.2f%%\n", "idle (spinning)", a.IdleJ, pct(a.IdleJ))
	fmt.Printf("  %-22s %14.6g %7.2f%%\n", "service (active)", a.ServiceJ, pct(a.ServiceJ))
	fmt.Printf("  %-22s %14.6g %7.2f%%\n", "spin-up cycles", a.SpinUpJ, pct(a.SpinUpJ))
	fmt.Printf("  %-22s %14.6g %7.2f%%\n", "spin-down cycles", a.SpinDownJ, pct(a.SpinDownJ))
	fmt.Printf("spin-ups: %d decision-caused, %d policy/untraced; spin-downs: %d\n",
		a.DecisionSpinUps, a.PolicySpinUps, a.SpinDowns)

	n := len(a.Causes)
	if *top > 0 && n > *top {
		n = *top
	}
	if n > 0 {
		fmt.Printf("\ntop spin-cycle causes by energy:\n")
		fmt.Printf("  %-12s %-22s %8s %10s %14s\n", "cause", "decision", "spin-ups", "spin-downs", "joules")
		for _, c := range a.Causes[:n] {
			who, what := "policy", "idle-threshold expiry"
			if c.Dec != 0 {
				who = fmt.Sprintf("dec %d", c.Dec)
				what = "(untraced decision)"
				if c.HasInfo {
					what = fmt.Sprintf("req %d -> disk %d @ %v", c.Req, c.Disk, c.At)
				}
			}
			fmt.Printf("  %-12s %-22s %8d %10d %14.6g\n", who, what, c.SpinUps, c.SpinDowns, c.Joules)
		}
		if n < len(a.Causes) {
			fmt.Printf("  ... %d more causes\n", len(a.Causes)-n)
		}
	}

	if *metricsFile != "" {
		data, err := os.ReadFile(*metricsFile)
		if err != nil {
			return err
		}
		vals, err := analyze.ParseMetricValues(data)
		if err != nil {
			return err
		}
		for st := core.StateStandby; st <= core.StateSpinDown; st++ {
			key := `esched_energy_joules_total{state="` + st.String() + `"}`
			want, ok := vals[key]
			if !ok {
				return fmt.Errorf("%s lacks %s", *metricsFile, key)
			}
			if got := a.ByState[st]; got != want {
				return fmt.Errorf("attribution diverges from export: %s replayed %v, exported %v", key, got, want)
			}
		}
		fmt.Printf("\nattribution matches %s bit-exactly (5/5 states)\n", *metricsFile)
	}
	return nil
}

// cmdCarbon replays a log through the same accounting integrator a live
// -grid run attaches (account.Accumulator over storage's default power
// model), so its report — windows, gCO2e, dollars — is byte-identical to
// what the live run printed and exported.
func cmdCarbon(args []string, stderr io.Writer) error {
	fs := cli.NewFlagSet("tracelens carbon", stderr)
	grid := fs.String("grid", "flat", "grid profile: flat | diurnal | coal | profile.json")
	costName := fs.String("cost", "default", "cost model: default | model.json")
	windows := fs.Int("windows", 12, "show at most this many window rows (0 = all)")
	metricsFile := fs.String("metrics", "", "check carbon/cost totals bit-exactly against this exported snapshot")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return cli.Usagef("usage: tracelens carbon [-grid P] [-cost M] [-windows N] [-metrics FILE] LOG")
	}
	g, err := account.ResolveGrid(*grid)
	if err != nil {
		return err
	}
	cm, err := account.ResolveCost(*costName)
	if err != nil {
		return err
	}
	evs, err := analyze.Load(fs.Arg(0))
	if err != nil {
		return err
	}
	if len(evs) == 0 {
		return fmt.Errorf("%s: empty event log", fs.Arg(0))
	}
	acc, err := account.NewAccumulator(storage.DefaultConfig().Power, g, cm)
	if err != nil {
		return err
	}
	for _, ev := range evs {
		acc.Observe(ev)
	}
	rep := acc.Finalize()

	fmt.Printf("carbon accounting: %d events, %d disks, horizon %v\n", acc.Events(), rep.Disks, rep.Horizon)
	n := len(rep.Windows)
	if *windows > 0 && n > *windows {
		n = *windows
	}
	fmt.Printf("  %-14s %-14s %12s %14s %12s\n", "start", "end", "gCO2e/kWh", "energy J", "gCO2e")
	for _, w := range rep.Windows[:n] {
		fmt.Printf("  %-14v %-14v %12.6g %14.6g %12.6g\n", w.Start, w.End, w.Intensity, w.EnergyJ, w.GCO2e)
	}
	if n < len(rep.Windows) {
		fmt.Printf("  ... %d more windows\n", len(rep.Windows)-n)
	}
	fmt.Println(rep.CarbonLine())
	fmt.Println(rep.CostLine())

	if *metricsFile != "" {
		data, err := os.ReadFile(*metricsFile)
		if err != nil {
			return err
		}
		vals, err := analyze.ParseMetricValues(data)
		if err != nil {
			return err
		}
		for key, got := range map[string]float64{
			account.MetricCarbon + `{grid="` + g.Name + `"}`:    rep.GCO2e,
			account.MetricCost + `{component="energy"}`:         rep.EnergyUSD,
			account.MetricCost + `{component="capex"}`:          rep.CapexUSD,
			account.MetricIntensity + `{grid="` + g.Name + `"}`: g.IntensityAt(rep.Horizon),
		} {
			want, ok := vals[key]
			if !ok {
				return fmt.Errorf("%s lacks %s (was the run recorded with -grid %s?)", *metricsFile, key, *grid)
			}
			if got != want {
				return fmt.Errorf("carbon accounting diverges from export: %s replayed %v, exported %v", key, got, want)
			}
		}
		fmt.Printf("carbon accounting matches %s bit-exactly (4/4 series)\n", *metricsFile)
	}
	return nil
}

// cmdWhatif renders the consolidation what-if table: cached sweep cells
// re-priced per policy and consolidation ratio, no re-simulation.
func cmdWhatif(args []string, stderr io.Writer) error {
	fs := cli.NewFlagSet("tracelens whatif", stderr)
	grid := fs.String("grid", "flat", "grid profile: flat | diurnal | coal | profile.json")
	costName := fs.String("cost", "default", "cost model: default | model.json")
	traceName := fs.String("trace", "cello", "workload trace: cello | financial")
	scaleName := fs.String("scale", "small", "experiment scale: small | full")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return cli.Usagef("usage: tracelens whatif [-grid P] [-cost M] [-trace T] [-scale small|full]")
	}
	g, err := account.ResolveGrid(*grid)
	if err != nil {
		return err
	}
	cm, err := account.ResolveCost(*costName)
	if err != nil {
		return err
	}
	var tr experiments.Trace
	switch *traceName {
	case "cello":
		tr = experiments.Cello
	case "financial":
		tr = experiments.Financial
	default:
		return cli.Usagef("unknown -trace %q (want cello or financial)", *traceName)
	}
	var scale experiments.Scale
	switch *scaleName {
	case "small":
		scale = experiments.SmallScale()
	case "full":
		scale = experiments.FullScale()
	default:
		return cli.Usagef("unknown -scale %q (want small or full)", *scaleName)
	}
	t, err := experiments.WhatIfTable(scale, tr, g, cm)
	if err != nil {
		return err
	}
	fmt.Print(t.Render())
	return nil
}

func cmdDiff(args []string, stderr io.Writer) error {
	fs := cli.NewFlagSet("tracelens diff", stderr)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return cli.Usagef("usage: tracelens diff A.LOG B.LOG")
	}
	a, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := load(fs.Arg(1))
	if err != nil {
		return err
	}
	fmt.Printf("A = %s\nB = %s\n\n", fs.Arg(0), fs.Arg(1))
	_, err = analyze.Diff(a, b).WriteTo(os.Stdout)
	return err
}

func cmdVerify(args []string, stderr io.Writer) error {
	fs := cli.NewFlagSet("tracelens verify", stderr)
	metricsFile := fs.String("metrics", "", "exported metrics snapshot to verify against (required)")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 || *metricsFile == "" {
		return cli.Usagef("usage: tracelens verify -metrics FILE LOG")
	}
	r, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	exported, err := os.ReadFile(*metricsFile)
	if err != nil {
		return err
	}
	if err := r.VerifyMetrics(exported); err != nil {
		return err
	}
	s := r.Summarize()
	fmt.Printf("verify OK: %d events replay to a byte-identical metrics export (%d requests, %.6g J)\n",
		s.Events, s.Requests, s.Energy)
	return nil
}

// cmdDoctor runs the offline runtime-verification suite over a recorded
// event log. The monitors assume the repo's default Barracuda-class power
// model and Cheetah mechanics (the configuration every simulator entry
// point uses); replica validity additionally needs the placement, which is
// deterministic from its generation parameters — pass the same
// -disks/-blocks/-rf/-z/-seed the run used to enable it.
func cmdDoctor(args []string, stderr io.Writer) error {
	fs := cli.NewFlagSet("tracelens doctor", stderr)
	var (
		disks   = fs.Int("disks", 0, "placement: number of disks (0 = skip the replica-validity monitor)")
		blocks  = fs.Int("blocks", 0, "placement: number of blocks")
		rf      = fs.Int("rf", 3, "placement: replication factor")
		zipf    = fs.Float64("z", 1, "placement: Zipf exponent")
		seed    = fs.Int64("seed", 1, "placement: random seed")
		policy  = fs.String("policy", "2cpm", "power policy the run used: 2cpm | always-on")
		nonFIFO = fs.Bool("nonfifo", false, "the run used a non-FIFO queue discipline (skip FIFO-order checks)")
		max     = fs.Int("max", 8, "violations kept verbatim per monitor (all are counted)")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return cli.Usagef("usage: tracelens doctor [flags] LOG  (or: tracelens doctor fidelity)")
	}

	cfg := storage.DefaultConfig()
	mcfg := monitor.Config{
		Power:         cfg.Power,
		Mech:          cfg.Mech,
		NonFIFO:       *nonFIFO,
		MaxViolations: *max,
	}
	switch *policy {
	case "2cpm":
		mcfg.Policy = power.TwoCompetitive{Config: cfg.Power}
	case "always-on":
		mcfg.Policy = power.AlwaysOn{}
	default:
		return cli.Usagef("unknown policy %q (want 2cpm or always-on)", *policy)
	}
	if *disks > 0 {
		plc, err := placement.Generate(placement.GenerateConfig{
			NumDisks: *disks, NumBlocks: *blocks,
			ReplicationFactor: *rf, ZipfExponent: *zipf, Seed: *seed,
		})
		if err != nil {
			return err
		}
		mcfg.Locations = plc.Locations
	}

	evs, err := analyze.Load(fs.Arg(0))
	if err != nil {
		return err
	}
	if len(evs) == 0 {
		return fmt.Errorf("%s: empty event log", fs.Arg(0))
	}
	suite := monitor.NewSuite(mcfg)
	suite.ObserveAll(evs)
	// Cross-check the monitor's independently integrated energy against the
	// analyzer's replay of the same log — two implementations, one stream,
	// bit-exact agreement required. Only meaningful on a complete capture.
	if r, err := analyze.New(evs); err == nil && r.Complete() {
		suite.VerifyResult(r.EnergyByState())
	}
	suite.Finish()
	if _, err := suite.WriteReport(os.Stdout); err != nil {
		return err
	}
	if !suite.Passed() {
		return fmt.Errorf("%s: %d invariant violations", fs.Arg(0), suite.Total())
	}
	return nil
}

// cmdDoctorFidelity evaluates the paper-claims table at the paper's scale.
// Every simulated cell also runs under live invariant monitoring, so a pass
// certifies both the claims and the invariants.
func cmdDoctorFidelity(args []string, stderr io.Writer) error {
	fs := cli.NewFlagSet("tracelens doctor fidelity", stderr)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return cli.Usagef("usage: tracelens doctor fidelity")
	}
	scale := experiments.FullScale()
	scale.Doctor = true
	tbl, off, err := experiments.Claims(scale)
	if err != nil {
		return err
	}
	fmt.Print(tbl.Render())
	for _, o := range off {
		fmt.Printf("claim %s\n", o)
	}
	if len(off) > 0 {
		return fmt.Errorf("%d paper claims differ from their declared status", len(off))
	}
	return nil
}
