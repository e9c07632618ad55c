package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/obs/flight"
	"repro/internal/simkernel"
)

// cmdShards renders the per-shard kernel telemetry report over a
// KernelStats JSON snapshot (figures -fleet -kernelstats FILE, eschedd
// /state, or a flight dump's telemetry.json).
func cmdShards(args []string, stderr io.Writer) error {
	fs := newFlagSet("tracelens shards", stderr)
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return usagef("usage: tracelens shards STATS.json")
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	var ks simkernel.KernelStats
	if err := json.Unmarshal(data, &ks); err != nil {
		return fmt.Errorf("%s: not a kernel telemetry snapshot: %w", fs.Arg(0), err)
	}
	if len(ks.Shards) == 0 {
		return fmt.Errorf("%s: snapshot holds no shards", fs.Arg(0))
	}
	return writeShardReport(os.Stdout, &ks)
}

// writeShardReport renders the shards table, the straggler line and — on a
// timed snapshot — the wall-clock attribution line.
func writeShardReport(w io.Writer, ks *simkernel.KernelStats) error {
	mode := "counters only (telemetry off)"
	if ks.Timed {
		mode = "timed"
	}
	fmt.Fprintf(w, "kernel telemetry: %d shards, %d events, %s\n",
		len(ks.Shards), ks.Events, mode)
	fmt.Fprintf(w, "  %5s %10s %6s %6s %6s %6s %10s %10s %6s %6s %6s %8s %8s\n",
		"shard", "events", "exec%", "queue%", "stall%", "slot%",
		"pushes", "pops", "rebld", "recal", "migr", "farHW", "poolHW")
	wall := ks.WallNS
	for i := range ks.Shards {
		s := &ks.Shards[i]
		pct := func(ns int64) string {
			if !ks.Timed || wall <= 0 {
				return "-"
			}
			return fmt.Sprintf("%.1f", float64(ns)/float64(wall)*100)
		}
		slot := "-"
		if s.Events > 0 {
			slot = fmt.Sprintf("%.1f", float64(s.SlotHits)/float64(s.Events)*100)
		}
		fmt.Fprintf(w, "  %5d %10d %6s %6s %6s %6s %10d %10d %6d %6d %6d %8d %8d\n",
			s.Shard, s.Events, pct(s.ExecNS), pct(s.QueueNS), pct(s.StallNS), slot,
			s.Pushes, s.Pops, s.Rebuilds, s.Recalibrations, s.Migrations,
			s.FarHighWater, s.PoolHighWater)
	}
	if st := ks.Straggler(); st >= 0 {
		s := &ks.Shards[st]
		line := fmt.Sprintf("straggler: shard %d (%d events", st, s.Events)
		if ks.Timed {
			line += fmt.Sprintf(", busy %v", time.Duration(s.BusyNS()))
		}
		fmt.Fprintln(w, line+")")
	}
	if ks.Timed {
		exec, queue, stall, cov := ks.Attribution()
		denom := float64(wall) * float64(len(ks.Shards))
		share := func(ns int64) float64 {
			if denom <= 0 {
				return 0
			}
			return float64(ns) / denom * 100
		}
		fmt.Fprintf(w, "attribution: execute %.1f%% + queue ops %.1f%% + stall %.1f%% = %.1f%% of %d x %v wall\n",
			share(exec), share(queue), share(stall), cov*100,
			len(ks.Shards), time.Duration(wall))
	} else {
		fmt.Fprintln(w, "wall-clock attribution off: arm telemetry (figures -fleet -kernelstats, eschedd, or FleetConfig.Telemetry) to bucket execute/queue/stall time")
	}
	return nil
}

// cmdLast inspects the most recent flight-recorder dump under a directory.
func cmdLast(args []string, stderr io.Writer) error {
	fs := newFlagSet("tracelens last", stderr)
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return usagef("usage: tracelens last DIR")
	}
	dir, err := flight.FindLatest(fs.Arg(0))
	if err != nil {
		return err
	}
	d, err := flight.ReadDump(dir)
	if err != nil {
		return err
	}
	fmt.Printf("flight dump   %s\n", d.Dir)
	fmt.Printf("trigger       %s\n", d.Meta.Reason)
	fmt.Printf("captured      %s\n", d.Meta.CapturedAt.Format(time.RFC3339))
	wrapped := "no (full run prefix)"
	if d.Meta.Wrapped {
		wrapped = "yes (window is a suffix)"
	}
	fmt.Printf("events        %d of %d observed, wrapped: %s\n", d.Meta.Events, d.Meta.Observed, wrapped)
	if len(d.Events) > 0 {
		first, last := d.Events[0], d.Events[len(d.Events)-1]
		fmt.Printf("window        seq %d..%d, t %v..%v\n", first.Seq, last.Seq, first.At, last.At)
	}
	fmt.Printf("goroutines    %d\n", d.Meta.Goroutines)
	for _, name := range []string{"goroutine.txt", "heap.pprof"} {
		if _, err := os.Stat(dir + "/" + name); err == nil {
			fmt.Printf("profile       %s\n", name)
		}
	}
	if d.Telemetry != nil {
		var ks simkernel.KernelStats
		if err := json.Unmarshal(d.Telemetry, &ks); err == nil && len(ks.Shards) > 0 {
			fmt.Println()
			return writeShardReport(os.Stdout, &ks)
		}
		fmt.Println("telemetry     telemetry.json (unrecognised layout)")
	}
	return nil
}
