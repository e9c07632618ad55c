package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		code   int
		stderr string // required substring of stderr
	}{
		{"help", []string{"-h"}, 0, "Usage of tracegen"},
		{"bad flag value", []string{"-n", "x"}, 2, "invalid value"},
		{"zero blocks", []string{"-n", "10", "-blocks", "0"}, 2, "-blocks must be positive, got 0"},
		{"negative requests", []string{"-n", "-5"}, 2, "-n must not be negative, got -5"},
		{"unknown workload", []string{"-workload", "nope"}, 2, `unknown workload "nope"`},
		{"unknown format", []string{"-n", "10", "-format", "nope"}, 2, `unknown format "nope"`},
		{"unwritable output", []string{"-n", "10", "-o", "/dev/null/t.spc"}, 1, "tracegen:"},
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
			if msg := stderr.String(); strings.HasPrefix(msg, "tracegen:") && strings.Count(msg, "\n") != 1 {
				t.Fatalf("run(%q) printed more than one error line: %q", c.args, msg)
			}
		})
	}
}

// TestRunWritesGzipSPCRoundTrip generates a gzip-compressed SPC trace and
// loads it back the way a real trace is loaded: every request returns in
// order with its LBA, size and arrival (to the format's microsecond), and
// each distinct block maps to one distinct loaded block.
func TestRunWritesGzipSPCRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "financial.spc.gz")
	var stdout, stderr bytes.Buffer
	args := []string{"-workload", "financial", "-n", "500", "-blocks", "200", "-seed", "3", "-o", path}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d (stderr: %s)", code, stderr.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	got, blocks, err := trace.LoadRequests(zr, trace.FormatSPC, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := zr.Close(); err != nil {
		t.Fatalf("gzip stream incomplete: %v", err)
	}

	want := workload.FinancialLike(500, 200, 3)
	if len(got) != len(want) {
		t.Fatalf("loaded %d requests, want %d", len(got), len(want))
	}
	blockOf := map[core.BlockID]core.BlockID{}
	for i, w := range want {
		g := got[i]
		if g.LBA != w.LBA || g.Size != w.Size {
			t.Fatalf("request %d: LBA/size %d/%d, want %d/%d", i, g.LBA, g.Size, w.LBA, w.Size)
		}
		if d := g.Arrival - (w.Arrival - want[0].Arrival); d < -time.Microsecond || d > time.Microsecond {
			t.Fatalf("request %d: arrival %v, want %v", i, g.Arrival, w.Arrival-want[0].Arrival)
		}
		if b, ok := blockOf[w.Block]; ok && b != g.Block {
			t.Fatalf("request %d: block %d loaded as %d and %d", i, w.Block, b, g.Block)
		}
		blockOf[w.Block] = g.Block
	}
	if blocks != len(blockOf) {
		t.Errorf("loaded %d blocks, want %d", blocks, len(blockOf))
	}
}

// failAfter accepts its first n writes and fails every later one.
type failAfter struct{ n int }

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n == 0 {
		return 0, errors.New("disk full")
	}
	w.n--
	return len(p), nil
}

// TestWriteTraceReportsGzipFooterError fails every write after the gzip
// header, so only the compressed body and footer written at Close fail:
// writeTrace must return that error instead of leaving a truncated .gz.
func TestWriteTraceReportsGzipFooterError(t *testing.T) {
	reqs := workload.CelloLike(10, 10, 1)
	if err := writeTrace(&failAfter{n: 1}, trace.FormatSPC, reqs, true); err == nil {
		t.Fatal("gzip footer write error dropped")
	}
	if err := writeTrace(&failAfter{n: 1 << 20}, trace.FormatSPC, reqs, true); err != nil {
		t.Fatal(err)
	}
}
