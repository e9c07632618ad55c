package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs/analyze"
)

func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	events := filepath.Join(dir, "demo.jsonl")
	metrics := filepath.Join(dir, "demo.prom")
	cases := []struct {
		name   string
		args   []string
		code   int
		stdout []string // required substrings of stdout
		stderr string   // required substring of stderr
	}{
		{"defaults", nil, 0, []string{"Figure 5: 2CPM configuration", "breakeven time T_B           15.914s"}, ""},
		{"help", []string{"-h"}, 0, nil, "Usage of breakeven"},
		{"bad flag value", []string{"-idle", "x"}, 2, nil, "invalid value"},
		{"invalid what-if value", []string{"-idle", "-1"}, 2, nil, "negative power"},
		{"what-if value", []string{"-eup", "200"}, 0, []string{"spin-up 200 J / 10s"}, ""},
		{"doctor", []string{"-doctor"}, 0, []string{"demonstration run (1 disk, 7 requests"}, ""},
		{"events and metrics", []string{"-events", events, "-metrics", metrics}, 0, []string{"demonstration run"}, "event log flushed to"},
		{"unwritable events", []string{"-events", filepath.Join(dir, "missing", "e.jsonl")}, 1, nil, "breakeven:"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(c.args, &stdout, &stderr)
			if code != c.code {
				t.Fatalf("run(%q) = %d, want %d (stderr: %s)", c.args, code, c.code, stderr.String())
			}
			for _, want := range c.stdout {
				if !strings.Contains(stdout.String(), want) {
					t.Fatalf("run(%q) stdout %q lacks %q", c.args, stdout.String(), want)
				}
			}
			if !strings.Contains(stderr.String(), c.stderr) {
				t.Fatalf("run(%q) stderr %q lacks %q", c.args, stderr.String(), c.stderr)
			}
		})
	}

	// The recorded demonstration loads back the way tracelens loads it: a
	// complete log of its seven requests, whose replay reproduces the
	// metrics export.
	evs, err := analyze.Load(events)
	if err != nil {
		t.Fatal(err)
	}
	r, err := analyze.New(evs)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Complete() || len(r.Requests) != 7 {
		t.Errorf("log complete=%v with %d requests, want a complete log of 7", r.Complete(), len(r.Requests))
	}
	prom, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.VerifyMetrics(prom); err != nil {
		t.Errorf("metrics export disagrees with the replayed log: %v", err)
	}
}
