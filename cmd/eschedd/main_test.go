package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestRunExitCodes pins the CLI's exit-code contract: 0 for success and
// help, 2 for usage mistakes (with diagnostics on stderr), 1 for
// operational failures.
func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		code   int
		stderr string // required substring of stderr
	}{
		{"no args", nil, 2, "usage: eschedd"},
		{"unknown subcommand", []string{"frobnicate"}, 2, `unknown subcommand "frobnicate"`},
		{"top-level help", []string{"-h"}, 0, "usage: eschedd"},
		{"subcommand help", []string{"serve", "-h"}, 0, "Usage of eschedd serve"},
		{"bad flag", []string{"serve", "-no-such-flag"}, 2, "flag provided but not defined"},
		{"bad flag value", []string{"loadgen", "-batch", "x"}, 2, "invalid value"},
		{"serve unknown mode", []string{"serve", "-mode", "nope"}, 2, `unknown -mode "nope"`},
		{"loadgen zero batch", []string{"loadgen", "-batch", "0"}, 2, "-batch must be >= 1"},
		{"loadgen unknown workload", []string{"loadgen", "-workload", "nope"}, 2, `unknown -workload "nope"`},
		{"loadgen open loop needs a rate", []string{"loadgen", "-loop", "open", "-rate", "0"}, 2, "-rate must be positive"},
		{"probe unreachable daemon", []string{"probe", "-addr", "127.0.0.1:1"}, 1, "daemon not reachable"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(c.args, &stdout, &stderr)
			if code != c.code {
				t.Fatalf("run(%q) = %d, want %d (stderr: %s)", c.args, code, c.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), c.stderr) {
				t.Fatalf("run(%q) stderr %q lacks %q", c.args, stderr.String(), c.stderr)
			}
		})
	}
}

// TestReportLatencyLines checks the SLO report on fixed latencies: the
// percentiles, the per-request share of a batched POST, and the size of
// the coordinated-omission correction on the open loop.
func TestReportLatencyLines(t *testing.T) {
	var lat, service []time.Duration
	for i := 100; i >= 1; i-- { // report sorts its inputs
		lat = append(lat, time.Duration(i)*time.Millisecond)
		service = append(service, time.Duration(i)*time.Millisecond/2)
	}
	start := stateSnap{Decisions: 10, EnergyJ: 5}
	end := stateSnap{Decisions: 110, EnergyJ: 25, Served: 100, SpinUps: 3, NowUS: 2_000_000}
	var out bytes.Buffer
	if err := report(&out, lat, service, true, 4, time.Second, 100, 2, 0, start, end); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"loadgen: 100 decided, 2 rejected, 0 failed in 1s (100 decisions/sec)\n",
		"latency: p50 50ms  p99 99ms  p99.9 99ms  max 100ms\n",
		"amortized per request (batch 4): p50 12.5ms  p99 24.75ms  max 25ms\n",
		"coordinated omission: uncorrected p99 49.5ms, corrected p99 99ms (delta 49.5ms)\n",
		"energy: 20.0 J settled across the run window, 200.000 J per 1k requests (daemon decisions 100)\n",
		"daemon: served 100, dropped 0, spin-ups 3, virtual time 2s\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}

	// A closed-loop, unbatched run prints neither the amortization nor the
	// correction line, and transport failures fail the report.
	out.Reset()
	err := report(&out, lat, lat, false, 1, time.Second, 100, 0, 3, start, end)
	if err == nil || !strings.Contains(err.Error(), "3 requests failed") {
		t.Fatalf("report with failures: err %v", err)
	}
	for _, absent := range []string{"amortized", "coordinated omission"} {
		if strings.Contains(out.String(), absent) {
			t.Errorf("closed-loop unbatched report has a %q line:\n%s", absent, out.String())
		}
	}
}
