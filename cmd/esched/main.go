// Command esched runs one energy-aware scheduling simulation and prints
// its metrics: energy (absolute and normalized to always-on), spin
// operations, and response-time statistics.
//
// Workloads are synthetic by default (-workload cello|financial) or loaded
// from a real trace file (-trace FILE -format spc|cellotext). Example:
//
//	esched -disks 180 -requests 70000 -rf 3 -scheduler wsc
//	esched -trace Financial1.spc -format spc -scheduler heuristic
//
// Observability (see docs/OBSERVABILITY.md): -events FILE streams the
// structured event log (JSONL, or the binary format when FILE ends in
// .bin), -metrics FILE dumps a Prometheus text snapshot at exit ("-" for
// stdout), and the standard profiling flags -cpuprofile, -memprofile,
// -tracefile and -pprof are available. -grid PROFILE prices the run's
// energy in gCO2e and dollars (with -cost MODEL selecting the tariff);
// the printed totals are byte-identical to a `tracelens carbon` replay of
// the -events log. On error, whatever events and metrics were collected
// are still flushed before exiting non-zero.
//
// Exit codes: 0 for success or -h, 1 for a failed run (or a doctor
// violation), 2 for a usage error.
package main

import (
	"bufio"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/cmd/internal/cli"
	"repro/cmd/internal/runobs"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/offline"
	"repro/internal/placement"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command's entry point; see the package comment for its exit
// codes.
func run(args []string, stdout, stderr io.Writer) int {
	return cli.Exit("esched", esched(args, stdout, stderr), stderr)
}

func esched(args []string, stdout, stderr io.Writer) (err error) {
	fs := cli.NewFlagSet("esched", stderr)
	var (
		disks     = fs.Int("disks", 180, "number of disks")
		requests  = fs.Int("requests", 70000, "number of requests (synthetic workloads)")
		blocks    = fs.Int("blocks", 30000, "number of blocks (synthetic workloads)")
		rf        = fs.Int("rf", 3, "data replication factor")
		zipf      = fs.Float64("z", 1, "data locality Zipf exponent (0 = uniform)")
		seed      = fs.Int64("seed", 1, "random seed")
		schedName = fs.String("scheduler", "heuristic", "random | static | heuristic | wsc | mwis | always-on")
		alpha     = fs.Float64("alpha", 0.2, "cost-function energy/performance mix")
		beta      = fs.Float64("beta", 10, "cost-function unit scale")
		interval  = fs.Duration("interval", 100*time.Millisecond, "batch scheduling interval (wsc)")
		wl        = fs.String("workload", "cello", "synthetic workload: cello | financial")
		traceFile = fs.String("trace", "", "real trace file (overrides -workload)")
		format    = fs.String("format", "spc", "trace format: spc | cellotext")
		compare   = fs.Bool("compare", false, "run every scheduler and print a comparison table")
		stateLog  = fs.String("statelog", "", "write per-disk state transitions as CSV to this file")
		events    = fs.String("events", "", "stream the structured event log to this file (JSONL; .bin = binary)")
		metrics   = fs.String("metrics", "", `write a Prometheus text metrics snapshot at exit ("-" = stdout)`)
		doctor    = fs.Bool("doctor", false, "run live invariant monitors over the run; non-zero exit on any violation")
		grid      = fs.String("grid", "", "price the run's energy under this carbon grid profile: flat | diurnal | coal | profile.json")
		costName  = fs.String("cost", "default", "cost model for -grid: default | model.json")
		flightDir = fs.String("flight", "", "flight-recorder dump directory: ring of recent events, dumped on doctor violations (off when empty)")
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
			fmt.Fprintln(stderr, "esched: profiles:", err)
		}
	}()

	reqs, err := loadRequests(*traceFile, *format, *wl, *requests, *blocks, *seed)
	if err != nil {
		return err
	}
	nblocks := *blocks
	if mb := int(maxBlock(reqs)) + 1; mb > nblocks {
		nblocks = mb // traces may reference more blocks than -blocks
	}
	plc, err := placement.Generate(placement.GenerateConfig{
		NumDisks: *disks, NumBlocks: nblocks,
		ReplicationFactor: *rf, ZipfExponent: *zipf, Seed: *seed,
	})
	if err != nil {
		return cli.UsageError(err.Error())
	}

	cfg := storage.DefaultConfig()
	cfg.NumDisks = *disks
	cost := sched.CostConfig{Alpha: *alpha, Beta: *beta, Power: cfg.Power}
	if err := cost.Validate(); err != nil {
		return cli.UsageError(err.Error())
	}

	var runOpts []storage.RunOption
	if *stateLog != "" {
		f, cerr := os.Create(*stateLog)
		if cerr != nil {
			return cerr
		}
		bw := bufio.NewWriter(f)
		defer func() {
			if werr := errors.Join(bw.Flush(), f.Close()); werr != nil && err == nil {
				err = fmt.Errorf("state log %s: %w", *stateLog, werr)
			}
		}()
		fmt.Fprintln(bw, "seconds,disk,from,to")
		runOpts = append(runOpts, storage.WithStateLog(bw))
	}

	// The always-on baseline swaps the power policy; decide it before the
	// doctor snapshots the policy for its threshold monitor.
	if *schedName == "always-on" && !*compare {
		cfg.Policy = power.AlwaysOn{}
		cfg.InitialState = core.StateIdle
	}
	// -grid prices the energy so the printed totals are byte-identical to a
	// `tracelens carbon` replay of the -events log; on a batch run the
	// flight recorder's trigger is the doctor.
	spec := runobs.Spec{Events: *events, Metrics: *metrics, Doctor: *doctor,
		Grid: *grid, Cost: *costName, FlightDir: *flightDir}
	if (*compare || *schedName == "mwis") && (spec.Grid != "" || spec.Doctor || spec.FlightDir != "") {
		return cli.UsageError("-grid, -doctor and -flight apply to one simulated run, not to -compare or the offline analytic MWIS model")
	}
	obsSet, err := runobs.Open("esched", stdout, stderr, spec, cfg, plc.Locations, nil)
	if err != nil {
		return err
	}
	runOpts = append(runOpts, obsSet.Options()...)
	tracer := obsSet.Tracer

	ws := workload.Analyze(reqs)
	fmt.Fprintf(stdout, "workload: %d requests, %d unique blocks, %s span, inter-arrival CoV %.1f\n",
		ws.Count, ws.UniqueBlocks, ws.Duration.Round(time.Second), ws.CoV)

	runErr := func() error {
		if *compare {
			return runComparison(stdout, cfg, plc.Locations, cost, reqs, *interval, *seed)
		}
		var res *storage.Result
		var err error
		switch *schedName {
		case "mwis":
			st, err := solveOffline(reqs, plc.Locations, cfg.Power)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "scheduler: energy-aware MWIS (offline analytic model)\n")
			fmt.Fprintf(stdout, "energy: %.0f J using %d disks, %d spin-ups / %d spin-downs\n",
				st.Energy, st.DisksUsed, st.SpinUps, st.SpinDowns)
			fmt.Fprintf(stdout, "energy saving vs per-request worst case: %.0f J\n", st.Saving)
			return nil
		case "wsc":
			res, err = storage.RunBatch(cfg, plc.Locations,
				sched.WSC{Locations: plc.Locations, Cost: cost, Tracer: tracer, Scratch: &sched.CoverScratch{}},
				reqs, *interval, runOpts...)
		case "random":
			res, err = storage.RunOnline(cfg, plc.Locations, sched.NewRandom(plc.Locations, *seed+1), reqs, runOpts...)
		case "static", "always-on":
			res, err = storage.RunOnline(cfg, plc.Locations, sched.Static{Locations: plc.Locations}, reqs, runOpts...)
		case "heuristic":
			res, err = storage.RunOnline(cfg, plc.Locations,
				sched.Heuristic{Locations: plc.Locations, Cost: cost, Tracer: tracer}, reqs, runOpts...)
		default:
			return cli.Usagef("unknown scheduler %q", *schedName)
		}
		if err != nil {
			return err
		}
		report(stdout, res)
		return nil
	}()

	return obsSet.Close(runErr)
}

// loadRequests reads the trace file, or generates the synthetic workload
// when there is none. n caps a trace's reads (0 = all) and sizes a
// synthetic stream; blocks sizes the synthetic block population.
func loadRequests(traceFile, format, wl string, n, blocks int, seed int64) ([]core.Request, error) {
	if n < 0 {
		return nil, cli.Usagef("-requests must not be negative, got %d", n)
	}
	if traceFile != "" {
		tf, err := trace.ParseFormat(format)
		if err != nil {
			return nil, cli.UsageError(err.Error())
		}
		f, err := os.Open(traceFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		var r io.Reader = f
		if strings.HasSuffix(traceFile, ".gz") {
			gz, err := gzip.NewReader(f)
			if err != nil {
				return nil, fmt.Errorf("gunzip %s: %w", traceFile, err)
			}
			defer gz.Close()
			r = gz
		}
		reqs, _, err := trace.LoadRequests(r, tf, n)
		return reqs, err
	}
	if blocks <= 0 {
		return nil, cli.Usagef("-blocks must be positive, got %d", blocks)
	}
	switch wl {
	case "cello":
		return workload.CelloLike(n, blocks, seed), nil
	case "financial":
		return workload.FinancialLike(n, blocks, seed), nil
	default:
		return nil, cli.Usagef("unknown workload %q", wl)
	}
}

func maxBlock(reqs []core.Request) core.BlockID {
	var m core.BlockID
	for _, r := range reqs {
		if r.Block > m {
			m = r.Block
		}
	}
	return m
}

// solveOffline runs the MWIS offline pipeline (GWMIN greedy and
// local-search refinement) under the paper-scale caps of
// experiments.FullScale.
func solveOffline(reqs []core.Request, loc sched.Locator, pc power.Config) (offline.Stats, error) {
	s := experiments.FullScale()
	_, st, err := offline.SolveRefined(reqs, loc, pc, offline.BuildOptions{
		MaxSuccessors: s.MWISSuccessors, MaxNodes: s.MWISMaxNodes,
	}, s.MWISPasses)
	return st, err
}

func report(w io.Writer, res *storage.Result) {
	fmt.Fprintf(w, "scheduler: %s\n", res.Scheduler)
	fmt.Fprintf(w, "energy: %.0f J (%.3f of always-on %.0f J) over %s\n",
		res.Energy, res.NormalizedEnergy(), res.AlwaysOnEnergy, res.Horizon.Round(time.Second))
	fmt.Fprintf(w, "spin operations: %d up / %d down\n", res.SpinUps, res.SpinDowns)
	fmt.Fprintf(w, "requests: %d served, %d dropped\n", res.Served, res.Dropped)
	fmt.Fprintf(w, "response time: mean %s, p90 %s, p99 %s, max %s\n",
		res.Response.Mean().Round(time.Millisecond),
		res.Response.Percentile(90).Round(time.Millisecond),
		res.Response.Percentile(99).Round(time.Millisecond),
		res.Response.Max().Round(time.Millisecond))
}

// runComparison runs every scheduler against the same workload and prints
// one row per algorithm.
func runComparison(w io.Writer, cfg storage.Config, loc sched.Locator, cost sched.CostConfig, reqs []core.Request, interval time.Duration, seed int64) error {
	fmt.Fprintf(w, "\n%-26s %-12s %-10s %-14s %-10s\n", "scheduler", "norm energy", "spin-ups", "mean response", "p90")
	row := func(name string, norm float64, spins int, mean, p90 time.Duration) {
		fmt.Fprintf(w, "%-26s %-12.3f %-10d %-14v %-10v\n", name, norm, spins,
			mean.Round(time.Millisecond), p90.Round(time.Millisecond))
	}
	type runner struct {
		name string
		run  func() (*storage.Result, error)
	}
	runners := []runner{
		{"random", func() (*storage.Result, error) {
			return storage.RunOnline(cfg, loc, sched.NewRandom(loc, seed+1), reqs)
		}},
		{"static", func() (*storage.Result, error) {
			return storage.RunOnline(cfg, loc, sched.Static{Locations: loc}, reqs)
		}},
		{"heuristic", func() (*storage.Result, error) {
			return storage.RunOnline(cfg, loc, sched.Heuristic{Locations: loc, Cost: cost}, reqs)
		}},
		{"predictive", func() (*storage.Result, error) {
			p, err := sched.NewPredictive(loc, cost, 0.5, cfg.Power.Breakeven())
			if err != nil {
				return nil, err
			}
			return storage.RunOnline(cfg, loc, p, reqs)
		}},
		{"wsc (batch)", func() (*storage.Result, error) {
			return storage.RunBatch(cfg, loc, sched.WSC{Locations: loc, Cost: cost}, reqs, interval)
		}},
	}
	for _, r := range runners {
		res, err := r.run()
		if err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		row(r.name, res.NormalizedEnergy(), res.SpinUps,
			res.Response.Mean(), res.Response.Percentile(90))
	}
	// Offline MWIS, analytic model.
	st, err := solveOffline(reqs, loc, cfg.Power)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-26s %-12s %-10d %-14s %-10s  (offline analytic: %.0f J)\n",
		"mwis (offline)", "-", st.SpinUps, "-", "-", st.Energy)
	return nil
}
