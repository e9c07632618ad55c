// Command figures regenerates the paper's evaluation figures as text
// tables (see EXPERIMENTS.md for the recorded full-scale output).
//
//	figures                     # all figures at small scale (fast)
//	figures -scale full         # the paper's 180-disk / 70k-request setup
//	figures -fig 6,7,8          # a subset
//	figures -tsv -out results/  # write TSV files instead of stdout tables
//	figures -fleet              # 100k-disk fleet throughput benchmark
//	figures -fleet -shards 500  # the fleet benchmark over 500 kernel engines
//
// The standard profiling flags -cpuprofile, -memprofile, -trace and -pprof
// are available for profiling full-scale regenerations, and -doctor runs
// every simulated cell under live invariant monitoring, failing the
// regeneration on any violation; -flight DIR additionally arms a per-cell
// flight recorder, so a violation leaves a replayable dump of the cell's
// recent events under DIR (inspect with `tracelens last`). A failing run
// still writes the partial -summary accumulated before the error and logs
// where it went. Within a run, Figures 9, 10, 12 and 17 reuse the
// replication sweep's cells instead of simulating them again (doctored
// runs always simulate fresh).
//
// Exit codes: 0 for success or -h, 1 for a failed run, 2 for a usage
// error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/account"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/storage"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// usageError marks a command-line mistake; run maps it to exit code 2. An
// empty message means the flag set has already printed the diagnostics.
type usageError string

func (e usageError) Error() string { return string(e) }

// run is the command's entry point; see the package comment for its exit
// codes.
func run(args []string, stdout, stderr io.Writer) int {
	err := figures(args, stdout, stderr)
	var ue usageError
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &ue):
		if ue != "" {
			fmt.Fprintln(stderr, "figures:", ue.Error())
		}
		return 2
	default:
		fmt.Fprintln(stderr, "figures:", err)
		return 1
	}
}

func figures(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scaleName = fs.String("scale", "small", "small | full")
		figList   = fs.String("fig", "all", "comma-separated figure numbers (2-17) or 'all'")
		ext       = fs.Bool("ext", false, "also run the extension experiments (off-loading, caching, rack-aware placement, prediction, DPM policies, queue disciplines)")
		tsv       = fs.Bool("tsv", false, "emit tab-separated values instead of aligned tables")
		summary   = fs.String("summary", "", "write a Markdown summary report to this file (runs both trace sweeps)")
		outDir    = fs.String("out", "", "write each figure to DIR/figNN.{txt,tsv} instead of stdout")
		doctor    = fs.Bool("doctor", false, "run live invariant monitors over every simulated cell; non-zero exit on any violation (doctored cells always bypass the sweep cache)")
		fleet     = fs.Bool("fleet", false, "run the 100k-disk fleet throughput benchmark (sharded kernel, hundreds of millions of events) instead of figures")
		shards    = fs.Int("shards", 0, "with -fleet: kernel engines over the fleet's racks (0 = one per rack, 1 = one engine for every rack)")
		kstats    = fs.String("kernelstats", "", "with -fleet: arm per-shard kernel timing and write the telemetry snapshot to this JSON file (inspect with `tracelens shards FILE`)")
		flightDir = fs.String("flight", "", "with -doctor: arm a flight recorder on every monitored cell; a doctor violation freezes the cell's recent events into a replayable dump under this directory (inspect with `tracelens last`)")
		grid      = fs.String("grid", "", "also emit carbon & what-if tables under this grid profile: flat | diurnal | coal | profile.json")
		costName  = fs.String("cost", "default", "cost model for -grid: default | model.json")
	)
	var prof obs.Profiles
	prof.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError("")
	}

	if *fleet {
		if *flightDir != "" {
			return usageError("-flight applies to figure regenerations, not -fleet (fleet runs are untraced)")
		}
	} else {
		if *kstats != "" {
			return usageError("-kernelstats applies to the -fleet benchmark only")
		}
		if *shards != 0 {
			return usageError("-shards applies to the -fleet benchmark only (figure cells each run on one kernel engine)")
		}
	}
	var scale experiments.Scale
	switch *scaleName {
	case "small":
		scale = experiments.SmallScale()
	case "full":
		scale = experiments.FullScale()
	default:
		return usageError(fmt.Sprintf("unknown scale %q", *scaleName))
	}
	scale.Doctor = *doctor
	if *flightDir != "" {
		if !*doctor {
			return usageError("-flight requires -doctor: without the monitors no trigger can fire")
		}
		scale.FlightDir = *flightDir
	}

	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(stderr, "figures: profiles:", err)
		}
	}()
	if *fleet {
		return runFleet(*shards, *kstats, stdout, stderr)
	}

	want := map[string]bool{}
	if *figList != "all" {
		for _, f := range strings.Split(*figList, ",") {
			want[strings.TrimSpace(f)] = true
		}
	}
	selected := func(n string) bool { return *figList == "all" || want[n] }

	emit := func(n string, t *experiments.Table) error {
		content := t.Render()
		ext := "txt"
		if *tsv {
			content = t.TSV()
			ext = "tsv"
		}
		if *outDir != "" {
			path := filepath.Join(*outDir, fmt.Sprintf("fig%s.%s", n, ext))
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s\n", path)
			return nil
		}
		fmt.Fprintln(stdout, content)
		return nil
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}

	start := time.Now()
	// Worked examples and configuration (independent of scale).
	if selected("2") {
		if err := emit("2", experiments.Figure2()); err != nil {
			return err
		}
	}
	if selected("3") {
		if err := emit("3", experiments.Figure3()); err != nil {
			return err
		}
	}
	if selected("4") {
		if err := emit("4", experiments.Figure4()); err != nil {
			return err
		}
	}
	if selected("5") {
		if err := emit("5", experiments.Figure5()); err != nil {
			return err
		}
	}

	// Cello replication sweep: Figures 6, 7, 8, 13.
	if selected("6") || selected("7") || selected("8") || selected("13") {
		sw, err := experiments.SweepReplication(scale, experiments.Cello)
		if err != nil {
			return err
		}
		for _, f := range []struct {
			n string
			t *experiments.Table
		}{
			{"6", sw.Figure6()}, {"7", sw.Figure7()}, {"8", sw.Figure8()}, {"13", sw.Figure13()},
		} {
			if selected(f.n) {
				if err := emit(f.n, f.t); err != nil {
					return err
				}
			}
		}
	}
	if selected("9") {
		t, err := experiments.Figure9(scale, experiments.Cello)
		if err != nil {
			return err
		}
		if err := emit("9", t); err != nil {
			return err
		}
	}
	if selected("10") {
		t, err := experiments.Figure10(scale, experiments.Cello)
		if err != nil {
			return err
		}
		if err := emit("10", t); err != nil {
			return err
		}
	}
	if selected("11") {
		t, err := experiments.Figure11(scale, experiments.Cello)
		if err != nil {
			return err
		}
		if err := emit("11", t); err != nil {
			return err
		}
	}
	if selected("12") {
		t, err := experiments.Figure12(scale, experiments.Cello)
		if err != nil {
			return err
		}
		if err := emit("12", t); err != nil {
			return err
		}
	}

	// Financial1 sweep: Figures 14, 15, 16.
	if selected("14") || selected("15") || selected("16") {
		sw, err := experiments.SweepReplication(scale, experiments.Financial)
		if err != nil {
			return err
		}
		for _, f := range []struct {
			n string
			t *experiments.Table
		}{
			{"14", sw.Figure6()}, {"15", sw.Figure7()}, {"16", sw.Figure8()},
		} {
			if selected(f.n) {
				if err := emit(f.n, f.t); err != nil {
					return err
				}
			}
		}
	}
	if selected("17") {
		t, err := experiments.Figure9(scale, experiments.Financial)
		if err != nil {
			return err
		}
		if err := emit("17", t); err != nil {
			return err
		}
	}

	// Carbon & consolidation what-if tables: re-pricings of the Cello sweep
	// already in the cache (or simulated once here), never extra cells.
	var gridProfile *account.GridProfile
	var costModel account.CostModel
	if *grid != "" {
		g, err := account.ResolveGrid(*grid)
		if err != nil {
			return err
		}
		cm, err := account.ResolveCost(*costName)
		if err != nil {
			return err
		}
		gridProfile, costModel = g, cm
		ct, err := experiments.CarbonTable(scale, experiments.Cello, g, cm)
		if err != nil {
			return err
		}
		if err := emit("-carbon", ct); err != nil {
			return err
		}
		wt, err := experiments.WhatIfTable(scale, experiments.Cello, g, cm)
		if err != nil {
			return err
		}
		if err := emit("-whatif", wt); err != nil {
			return err
		}
	}

	if *summary != "" {
		md, err := report.Generate(report.Options{
			Scale:      scale,
			Extensions: *ext,
			Grid:       gridProfile,
			Cost:       costModel,
		})
		if err != nil {
			// Flush the partial report before exiting non-zero so completed
			// sweeps are not discarded with the failure.
			if md != "" {
				if werr := os.WriteFile(*summary, []byte(md), 0o644); werr == nil {
					fmt.Fprintf(stderr, "figures: partial summary flushed to %s\n", *summary)
				}
			}
			return err
		}
		if err := os.WriteFile(*summary, []byte(md), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *summary)
	}

	if *ext {
		tables, err := experiments.Extensions(scale, experiments.Cello)
		if err != nil {
			return err
		}
		for i, t := range tables {
			if err := emit(fmt.Sprintf("-ext%d", i+1), t); err != nil {
				return err
			}
		}
	}

	fmt.Fprintf(stderr, "done in %s\n", time.Since(start).Round(time.Second))
	return nil
}

// runFleet executes the headline scale point: a 100,000-disk fleet in 1000
// racks at fleet event density (~315 million kernel events). One shard per
// rack keeps each engine's calendar queue and disk stripe
// cache-resident, and the GC stays off for the run (FleetConfig.RelaxGC).
func runFleet(shards int, kstats string, stdout, stderr io.Writer) error {
	cfg := storage.DefaultFleetConfig()
	cfg.NumDisks = 100_000
	cfg.NumRacks = 1_000
	cfg.RequestsPerDisk = 1_400
	cfg.BurstLen = 800
	cfg.InterArrival = 25 * time.Microsecond
	cfg.Seed = 42
	cfg.RelaxGC = true
	cfg.Shards = shards
	cfg.Telemetry = kstats != ""
	if shards == 0 {
		cfg.Shards = cfg.NumRacks
	}
	fmt.Fprintf(stderr, "figures: fleet %d disks / %d racks / %d shards, %d requests\n",
		cfg.NumDisks, cfg.NumRacks, cfg.Shards, cfg.NumDisks*cfg.RequestsPerDisk)
	res, err := storage.RunFleet(cfg)
	if err != nil {
		return err
	}
	t := &experiments.Table{
		Title:  "Fleet throughput (100k disks, sharded kernel)",
		Header: []string{"metric", "value"},
	}
	t.AddRow("disks", fmt.Sprintf("%d", res.NumDisks))
	t.AddRow("shards", fmt.Sprintf("%d", res.Shards))
	t.AddRow("events", fmt.Sprintf("%d", res.Events))
	t.AddRow("events/sec", fmt.Sprintf("%.0f", res.EventsPerSec))
	t.AddRow("wall", res.Wall.Round(time.Millisecond).String())
	t.AddRow("virtual horizon", res.Horizon.Round(time.Millisecond).String())
	t.AddRow("served", fmt.Sprintf("%d", res.Served))
	t.AddRow("energy (J)", fmt.Sprintf("%.0f", res.Energy))
	t.AddRow("normalized energy", fmt.Sprintf("%.3f", res.Energy/res.AlwaysOnEnergy))
	t.AddRow("spin-ups", fmt.Sprintf("%d", res.SpinUps))
	t.AddRow("mean response", res.MeanResponse.Round(time.Microsecond).String())
	t.AddRow("p50 / p90 / p99", fmt.Sprintf("%s / %s / %s",
		res.P50.Round(time.Microsecond), res.P90.Round(time.Microsecond), res.P99.Round(time.Microsecond)))
	fmt.Fprintln(stdout, t.Render())
	if kstats != "" {
		data, err := json.MarshalIndent(res.Kernel, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(kstats, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "figures: kernel telemetry written to %s (tracelens shards %s)\n", kstats, kstats)
	}
	return nil
}
