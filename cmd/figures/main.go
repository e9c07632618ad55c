// Command figures regenerates the paper's evaluation figures as text
// tables (see EXPERIMENTS.md for the recorded full-scale output).
//
//	figures                     # all figures at small scale (fast)
//	figures -scale full         # the paper's 180-disk / 70k-request setup
//	figures -fig 6,7,8          # a subset
//	figures -tsv -out results/  # write TSV files instead of stdout tables
//	figures -fleet              # 100k-disk fleet throughput benchmark
//	figures -shards 8           # run simulated cells on the sharded kernel
//
// The standard profiling flags -cpuprofile, -memprofile, -trace and -pprof
// are available for profiling full-scale regenerations, and -telemetry
// ADDR serves live per-cell sweep progress over HTTP while a regeneration
// runs (see docs/OBSERVABILITY.md), and -doctor runs every simulated cell
// under live invariant monitoring, failing the regeneration on any
// violation; -flight DIR additionally arms a per-cell flight recorder, so
// a violation leaves a replayable dump of the cell's recent events under
// DIR (inspect with `tracelens last`). A failing run still writes the
// partial -summary accumulated
// before the error and logs where it went. -cache DIR persists
// replication-sweep results on disk, content-addressed by every input, so
// unchanged repeat runs skip the simulation entirely (doctored runs always
// simulate fresh).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
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
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		scaleName = flag.String("scale", "small", "small | full")
		figList   = flag.String("fig", "all", "comma-separated figure numbers (2-17) or 'all'")
		ext       = flag.Bool("ext", false, "also run the extension experiments (off-loading, caching, rack-aware placement, prediction, DPM policies, queue disciplines)")
		tsv       = flag.Bool("tsv", false, "emit tab-separated values instead of aligned tables")
		summary   = flag.String("summary", "", "write a Markdown summary report to this file (runs both trace sweeps)")
		outDir    = flag.String("out", "", "write each figure to DIR/figNN.{txt,tsv} instead of stdout")
		telemetry = flag.String("telemetry", "", `serve live sweep telemetry on this address (e.g. "localhost:8090": /healthz, /metrics, /progress)`)
		doctor    = flag.Bool("doctor", false, "run live invariant monitors over every simulated cell; non-zero exit on any violation (doctored cells always bypass the sweep cache)")
		cacheDir  = flag.String("cache", "", "persist replication-sweep results in this directory, keyed by a content hash of every input; repeat runs with unchanged inputs reuse them")
		fleet     = flag.Bool("fleet", false, "run the 100k-disk fleet throughput benchmark (sharded kernel, hundreds of millions of events) instead of figures")
		shards    = flag.Int("shards", 0, "kernel shard count (0 or 1 = serial engine); with -fleet, sub-kernels over the fleet's racks (0 = one per rack)")
		kstats    = flag.String("kernelstats", "", "with -fleet: arm per-shard kernel timing and write the telemetry snapshot to this JSON file (inspect with `tracelens shards FILE`)")
		flightDir = flag.String("flight", "", "with -doctor: arm a flight recorder on every monitored cell; a doctor violation freezes the cell's recent events into a replayable dump under this directory (inspect with `tracelens last`)")
		grid      = flag.String("grid", "", "also emit carbon & what-if tables under this grid profile: flat | diurnal | coal | profile.json")
		costName  = flag.String("cost", "default", "cost model for -grid: default | model.json")
	)
	var prof obs.Profiles
	prof.RegisterFlags(flag.CommandLine)
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "figures: profiles:", err)
		}
	}()

	if *fleet {
		if *flightDir != "" {
			return fmt.Errorf("-flight applies to figure regenerations, not -fleet (fleet runs are untraced)")
		}
		return runFleet(*shards, *kstats)
	}
	if *kstats != "" {
		return fmt.Errorf("-kernelstats applies to the -fleet benchmark only")
	}

	var scale experiments.Scale
	switch *scaleName {
	case "small":
		scale = experiments.SmallScale()
	case "full":
		scale = experiments.FullScale()
	default:
		return fmt.Errorf("unknown scale %q", *scaleName)
	}
	scale.Doctor = *doctor
	scale.Shards = *shards
	if *flightDir != "" {
		if !*doctor {
			return fmt.Errorf("-flight requires -doctor: without the monitors no trigger can fire")
		}
		scale.FlightDir = *flightDir
	}

	if *cacheDir != "" {
		if err := experiments.DefaultSweepCache().SetDir(*cacheDir); err != nil {
			return fmt.Errorf("cache: %w", err)
		}
		defer func() {
			fmt.Fprintf(os.Stderr, "figures: sweep cache %s\n", experiments.DefaultSweepCache().Stats())
		}()
	}

	if *telemetry != "" {
		mon := experiments.NewMonitor()
		addr, shutdown, err := mon.Serve(*telemetry)
		if err != nil {
			return fmt.Errorf("telemetry: %w", err)
		}
		defer shutdown()
		scale.Monitor = mon
		fmt.Fprintf(os.Stderr, "figures: telemetry on http://%s (/healthz /metrics /progress)\n", addr)
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
			fmt.Printf("wrote %s\n", path)
			return nil
		}
		fmt.Println(content)
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
			Generated:  time.Now().UTC(),
			Grid:       gridProfile,
			Cost:       costModel,
		})
		if err != nil {
			// Flush the partial report before exiting non-zero so completed
			// sweeps are not discarded with the failure.
			if md != "" {
				if werr := os.WriteFile(*summary, []byte(md), 0o644); werr == nil {
					fmt.Fprintf(os.Stderr, "figures: partial summary flushed to %s\n", *summary)
				}
			}
			return err
		}
		if err := os.WriteFile(*summary, []byte(md), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *summary)
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

	fmt.Fprintf(os.Stderr, "done in %s\n", time.Since(start).Round(time.Second))
	return nil
}

// runFleet executes the headline scale point: a 100,000-disk fleet in 1000
// racks at fleet event density (~315 million kernel events). One shard per
// rack keeps each sub-kernel's calendar queue and disk stripe
// cache-resident, and the GC stays off for the run (FleetConfig.RelaxGC).
func runFleet(shards int, kstats string) error {
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
	fmt.Fprintf(os.Stderr, "figures: fleet %d disks / %d racks / %d shards, %d requests\n",
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
	fmt.Println(t.Render())
	if kstats != "" {
		data, err := json.MarshalIndent(res.Kernel, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(kstats, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "figures: kernel telemetry written to %s (tracelens shards %s)\n", kstats, kstats)
	}
	return nil
}
