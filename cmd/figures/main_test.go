package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		code   int
		stderr string // required substring of stderr
	}{
		{"help", []string{"-h"}, 0, "Usage of figures"},
		{"no disk cache", []string{"-cache", "x"}, 2, "flag provided but not defined: -cache"},
		{"no sweep telemetry", []string{"-telemetry", "x"}, 2, "flag provided but not defined: -telemetry"},
		{"bad flag value", []string{"-shards", "x"}, 2, "invalid value"},
		{"shards without fleet", []string{"-shards", "5"}, 2, "-shards applies to the -fleet benchmark only"},
		{"kernelstats without fleet", []string{"-kernelstats", "k.json"}, 2, "-kernelstats applies to the -fleet benchmark only"},
		{"flight with fleet", []string{"-fleet", "-flight", "d"}, 2, "-flight applies to figure regenerations"},
		{"flight without doctor", []string{"-flight", "d"}, 2, "-flight requires -doctor"},
		{"unknown scale", []string{"-scale", "bogus"}, 2, `unknown scale "bogus"`},
		{"unwritable output", []string{"-fig", "2", "-out", "/dev/null/figs"}, 1, "figures:"},
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

// TestRunWritesScaleFreeFigures regenerates the two figures that read no
// simulation (the worked example and the disk power model), so they equal
// the committed full-scale files at any scale.
func TestRunWritesScaleFreeFigures(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-fig", "2,5", "-out", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d (stderr: %s)", code, stderr.String())
	}
	for _, name := range []string{"fig2.txt", "fig5.txt"} {
		if !strings.Contains(stdout.String(), "wrote "+filepath.Join(dir, name)) {
			t.Errorf("stdout lacks the write of %s:\n%s", name, stdout.String())
		}
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "results", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from results/%s:\n%s\nwant:\n%s", name, name, got, want)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 2 {
		t.Errorf("-fig 2,5 wrote %d files (err %v), want 2", len(entries), err)
	}
}
