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
package main

import (
	"bufio"
	"compress/gzip"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro"
	"repro/cmd/internal/runobs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "esched:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		disks     = flag.Int("disks", 180, "number of disks")
		requests  = flag.Int("requests", 70000, "number of requests (synthetic workloads)")
		blocks    = flag.Int("blocks", 30000, "number of blocks (synthetic workloads)")
		rf        = flag.Int("rf", 3, "data replication factor")
		zipf      = flag.Float64("z", 1, "data locality Zipf exponent (0 = uniform)")
		seed      = flag.Int64("seed", 1, "random seed")
		schedName = flag.String("scheduler", "heuristic", "random | static | heuristic | wsc | mwis | always-on")
		alpha     = flag.Float64("alpha", 0.2, "cost-function energy/performance mix")
		beta      = flag.Float64("beta", 10, "cost-function unit scale")
		interval  = flag.Duration("interval", 100*time.Millisecond, "batch scheduling interval (wsc)")
		workload  = flag.String("workload", "cello", "synthetic workload: cello | financial")
		traceFile = flag.String("trace", "", "real trace file (overrides -workload)")
		format    = flag.String("format", "spc", "trace format: spc | cellotext")
		compare   = flag.Bool("compare", false, "run every scheduler and print a comparison table")
		stateLog  = flag.String("statelog", "", "write per-disk state transitions as CSV to this file")
		events    = flag.String("events", "", "stream the structured event log to this file (JSONL; .bin = binary)")
		metrics   = flag.String("metrics", "", `write a Prometheus text metrics snapshot at exit ("-" = stdout)`)
		doctor    = flag.Bool("doctor", false, "run live invariant monitors over the run; non-zero exit on any violation")
		grid      = flag.String("grid", "", "price the run's energy under this carbon grid profile: flat | diurnal | coal | profile.json")
		costName  = flag.String("cost", "default", "cost model for -grid: default | model.json")
		flightDir = flag.String("flight", "", "flight-recorder dump directory: ring of recent events, dumped on doctor violations (off when empty)")
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
			fmt.Fprintln(os.Stderr, "esched: profiles:", err)
		}
	}()

	reqs, err := loadRequests(*traceFile, *format, *workload, *requests, *blocks, *seed)
	if err != nil {
		return err
	}
	nblocks := *blocks
	if mb := int(maxBlock(reqs)) + 1; mb > nblocks {
		nblocks = mb // traces may reference more blocks than -blocks
	}
	plc, err := repro.GeneratePlacement(repro.PlacementConfig{
		NumDisks: *disks, NumBlocks: nblocks,
		ReplicationFactor: *rf, ZipfExponent: *zipf, Seed: *seed,
	})
	if err != nil {
		return err
	}

	cfg := repro.DefaultSystemConfig()
	cfg.NumDisks = *disks
	cost := repro.CostConfig{Alpha: *alpha, Beta: *beta, Power: cfg.Power}
	if err := cost.Validate(); err != nil {
		return err
	}

	var runOpts []repro.RunOption
	if *stateLog != "" {
		f, err := os.Create(*stateLog)
		if err != nil {
			return err
		}
		defer f.Close()
		bw := bufio.NewWriter(f)
		defer bw.Flush()
		fmt.Fprintln(bw, "seconds,disk,from,to")
		runOpts = append(runOpts, repro.WithStateLog(bw))
	}

	// The always-on baseline swaps the power policy; decide it before the
	// doctor snapshots the policy for its threshold monitor.
	if *schedName == "always-on" && !*compare {
		cfg.Policy = repro.AlwaysOnPolicy()
		cfg.InitialState = repro.StateIdle
	}
	// -grid prices the energy so the printed totals are byte-identical to a
	// `tracelens carbon` replay of the -events log; on a batch run the
	// flight recorder's trigger is the doctor.
	spec := runobs.Spec{Events: *events, Metrics: *metrics, Doctor: *doctor,
		Grid: *grid, Cost: *costName, FlightDir: *flightDir}
	if (*compare || *schedName == "mwis") && (spec.Grid != "" || spec.Doctor || spec.FlightDir != "") {
		return fmt.Errorf("-grid, -doctor and -flight apply to one simulated run, not to -compare or the offline analytic MWIS model")
	}
	obsSet, err := runobs.Open("esched", spec, cfg, plc.Locations, nil)
	if err != nil {
		return err
	}
	runOpts = append(runOpts, obsSet.Options()...)
	tracer := obsSet.Tracer

	ws := repro.AnalyzeWorkload(reqs)
	fmt.Printf("workload: %d requests, %d unique blocks, %s span, inter-arrival CoV %.1f\n",
		ws.Count, ws.UniqueBlocks, ws.Duration.Round(time.Second), ws.CoV)

	runErr := func() error {
		if *compare {
			return runComparison(cfg, plc, cost, reqs, *interval, *seed)
		}
		var res *repro.Result
		var err error
		switch *schedName {
		case "mwis":
			_, st, err := repro.SolveOffline(reqs, plc.Locations, cfg.Power, repro.OfflineOptions{
				MaxSuccessors: 4, MaxNodes: 5_000_000,
			})
			if err != nil {
				return err
			}
			fmt.Printf("scheduler: energy-aware MWIS (offline analytic model)\n")
			fmt.Printf("energy: %.0f J using %d disks, %d spin-ups / %d spin-downs\n",
				st.Energy, st.DisksUsed, st.SpinUps, st.SpinDowns)
			fmt.Printf("energy saving vs per-request worst case: %.0f J\n", st.Saving)
			return nil
		case "wsc":
			res, err = repro.RunBatch(cfg, plc.Locations,
				repro.NewTracedWSCScheduler(plc.Locations, cost, tracer), reqs, *interval, runOpts...)
		case "random":
			res, err = repro.RunOnline(cfg, plc.Locations, repro.NewRandomScheduler(plc.Locations, *seed+1), reqs, runOpts...)
		case "static", "always-on":
			res, err = repro.RunOnline(cfg, plc.Locations, repro.NewStaticScheduler(plc.Locations), reqs, runOpts...)
		case "heuristic":
			res, err = repro.RunOnline(cfg, plc.Locations,
				repro.NewTracedHeuristicScheduler(plc.Locations, cost, tracer), reqs, runOpts...)
		default:
			return fmt.Errorf("unknown scheduler %q", *schedName)
		}
		if err != nil {
			return err
		}
		report(res)
		return nil
	}()

	return obsSet.Close(runErr)
}

// loadRequests reads the trace file, or generates the synthetic workload
// when there is none. n caps a trace's reads (0 = all) and sizes a
// synthetic stream; blocks sizes the synthetic block population.
func loadRequests(traceFile, format, workload string, n, blocks int, seed int64) ([]repro.Request, error) {
	if n < 0 {
		return nil, fmt.Errorf("-requests must not be negative, got %d", n)
	}
	if traceFile != "" {
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
		var tf repro.TraceFormat
		switch format {
		case "spc":
			tf = repro.FormatSPC
		case "cellotext":
			tf = repro.FormatCelloText
		default:
			return nil, fmt.Errorf("unknown trace format %q", format)
		}
		reqs, _, err := repro.LoadTrace(r, tf, n)
		return reqs, err
	}
	if blocks <= 0 {
		return nil, fmt.Errorf("-blocks must be positive, got %d", blocks)
	}
	switch workload {
	case "cello":
		return repro.CelloLike(n, blocks, seed), nil
	case "financial":
		return repro.FinancialLike(n, blocks, seed), nil
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
}

func maxBlock(reqs []repro.Request) repro.BlockID {
	var m repro.BlockID
	for _, r := range reqs {
		if r.Block > m {
			m = r.Block
		}
	}
	return m
}

func report(res *repro.Result) {
	fmt.Printf("scheduler: %s\n", res.Scheduler)
	fmt.Printf("energy: %.0f J (%.3f of always-on %.0f J) over %s\n",
		res.Energy, res.NormalizedEnergy(), res.AlwaysOnEnergy, res.Horizon.Round(time.Second))
	fmt.Printf("spin operations: %d up / %d down\n", res.SpinUps, res.SpinDowns)
	fmt.Printf("requests: %d served, %d dropped\n", res.Served, res.Dropped)
	fmt.Printf("response time: mean %s, p90 %s, p99 %s, max %s\n",
		res.Response.Mean().Round(time.Millisecond),
		res.Response.Percentile(90).Round(time.Millisecond),
		res.Response.Percentile(99).Round(time.Millisecond),
		res.Response.Max().Round(time.Millisecond))
}

// runComparison runs every scheduler against the same workload and prints
// one row per algorithm.
func runComparison(cfg repro.SystemConfig, plc *repro.Placement, cost repro.CostConfig, reqs []repro.Request, interval time.Duration, seed int64) error {
	fmt.Printf("\n%-26s %-12s %-10s %-14s %-10s\n", "scheduler", "norm energy", "spin-ups", "mean response", "p90")
	row := func(name string, norm float64, spins int, mean, p90 time.Duration) {
		fmt.Printf("%-26s %-12.3f %-10d %-14v %-10v\n", name, norm, spins,
			mean.Round(time.Millisecond), p90.Round(time.Millisecond))
	}
	type runner struct {
		name string
		run  func() (*repro.Result, error)
	}
	runners := []runner{
		{"random", func() (*repro.Result, error) {
			return repro.RunOnline(cfg, plc.Locations, repro.NewRandomScheduler(plc.Locations, seed+1), reqs)
		}},
		{"static", func() (*repro.Result, error) {
			return repro.RunOnline(cfg, plc.Locations, repro.NewStaticScheduler(plc.Locations), reqs)
		}},
		{"heuristic", func() (*repro.Result, error) {
			return repro.RunOnline(cfg, plc.Locations, repro.NewHeuristicScheduler(plc.Locations, cost), reqs)
		}},
		{"predictive", func() (*repro.Result, error) {
			p, err := repro.NewPredictiveScheduler(plc.Locations, cost, 0.5, cfg.Power.Breakeven())
			if err != nil {
				return nil, err
			}
			return repro.RunOnline(cfg, plc.Locations, p, reqs)
		}},
		{"wsc (batch)", func() (*repro.Result, error) {
			return repro.RunBatch(cfg, plc.Locations, repro.NewWSCScheduler(plc.Locations, cost), reqs, interval)
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
	_, st, err := repro.SolveOffline(reqs, plc.Locations, cfg.Power, repro.OfflineOptions{
		MaxSuccessors: 4, MaxNodes: 5_000_000,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%-26s %-12s %-10d %-14s %-10s  (offline analytic: %.0f J)\n",
		"mwis (offline)", "-", st.SpinUps, "-", "-", st.Energy)
	return nil
}
