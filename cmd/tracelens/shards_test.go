package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/storage"
)

// TestWriteShardReport renders timed and untimed fleet snapshots and pins
// the report's shape: the "kernel telemetry:" header (which the flight gate
// greps for), one row per shard carrying its event count, the straggler
// line and the attribution line.
func TestWriteShardReport(t *testing.T) {
	for _, timed := range []bool{false, true} {
		t.Run(fmt.Sprintf("timed=%v", timed), func(t *testing.T) {
			cfg := storage.DefaultFleetConfig()
			cfg.NumDisks = 240
			cfg.NumRacks = 12
			cfg.RequestsPerDisk = 25
			cfg.BurstLen = 60
			cfg.Seed = 7
			cfg.Shards = 4
			cfg.Telemetry = timed
			res, err := storage.RunFleet(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ks := res.Kernel
			var buf bytes.Buffer
			if err := writeShardReport(&buf, ks); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			lines := strings.Split(strings.TrimRight(out, "\n"), "\n")

			mode := "counters only (telemetry off)"
			if timed {
				mode = "timed"
			}
			header := fmt.Sprintf("kernel telemetry: 4 shards, %d events, %s", res.Events, mode)
			if lines[0] != header {
				t.Fatalf("header %q, want %q", lines[0], header)
			}
			// lines[1] is the column header; one row per shard follows.
			if len(lines) != 2+len(ks.Shards)+2 {
				t.Fatalf("report has %d lines, want %d:\n%s", len(lines), 2+len(ks.Shards)+2, out)
			}
			for i, s := range ks.Shards {
				f := strings.Fields(lines[2+i])
				if len(f) != 13 || f[0] != fmt.Sprint(i) || f[1] != fmt.Sprint(s.Events) {
					t.Fatalf("shard row %d = %q, want shard %d with %d events", i, lines[2+i], i, s.Events)
				}
				if pct := f[2]; (pct == "-") == timed {
					t.Fatalf("shard row %d exec%% = %q on a timed=%v snapshot", i, pct, timed)
				}
			}
			st := ks.Straggler()
			straggler := lines[2+len(ks.Shards)]
			prefix := fmt.Sprintf("straggler: shard %d (%d events", st, ks.Shards[st].Events)
			if !strings.HasPrefix(straggler, prefix) || strings.Contains(straggler, "busy") != timed {
				t.Fatalf("straggler line %q, want prefix %q (busy time iff timed)", straggler, prefix)
			}
			last := lines[len(lines)-1]
			if timed {
				if !strings.HasPrefix(last, "attribution: execute ") || !strings.Contains(last, " of 4 x ") || !strings.HasSuffix(last, " wall") {
					t.Fatalf("attribution line %q", last)
				}
			} else if !strings.HasPrefix(last, "wall-clock attribution off") {
				t.Fatalf("untimed report ends with %q, want the attribution-off note", last)
			}
		})
	}
}
