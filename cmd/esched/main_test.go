package main

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestLoadRequestsSynthetic(t *testing.T) {
	t.Parallel()
	reqs, err := loadRequests("", "spc", "cello", 100, 50, 1)
	if err != nil || len(reqs) != 100 {
		t.Fatalf("cello: %d reqs, err %v", len(reqs), err)
	}
	reqs, err = loadRequests("", "spc", "financial", 100, 50, 1)
	if err != nil || len(reqs) != 100 {
		t.Fatalf("financial: %d reqs, err %v", len(reqs), err)
	}
	if _, err := loadRequests("", "spc", "nope", 10, 5, 1); err == nil {
		t.Error("accepted unknown workload")
	}
	// Sizes the generators would panic on are errors.
	for _, c := range []struct {
		workload    string
		n, blocks   int
		wantMessage string
	}{
		{"cello", 10, 0, "-blocks must be positive, got 0"},
		{"financial", 10, -3, "-blocks must be positive, got -3"},
		{"cello", -5, 50, "-requests must not be negative, got -5"},
	} {
		_, err := loadRequests("", "spc", c.workload, c.n, c.blocks, 1)
		if err == nil || err.Error() != c.wantMessage {
			t.Errorf("%s n=%d blocks=%d: err %v, want %q", c.workload, c.n, c.blocks, err, c.wantMessage)
		}
	}
}

func TestLoadRequestsFromFileAndGzip(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	reqs := workload.FinancialLike(200, 100, 3)

	plain := filepath.Join(dir, "t.spc")
	f, err := os.Create(plain)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteRequests(f, trace.FormatSPC, reqs); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := loadRequests(plain, "spc", "", 0, 0, 0)
	if err != nil || len(got) != 200 {
		t.Fatalf("plain: %d reqs, err %v", len(got), err)
	}

	zipped := filepath.Join(dir, "t.spc.gz")
	zf, err := os.Create(zipped)
	if err != nil {
		t.Fatal(err)
	}
	gz := gzip.NewWriter(zf)
	if err := trace.WriteRequests(gz, trace.FormatSPC, reqs); err != nil {
		t.Fatal(err)
	}
	gz.Close()
	zf.Close()
	got, err = loadRequests(zipped, "spc", "", 0, 0, 0)
	if err != nil || len(got) != 200 {
		t.Fatalf("gzip: %d reqs, err %v", len(got), err)
	}

	if _, err := loadRequests(plain, "spc", "", -5, 0, 0); err == nil {
		t.Error("accepted a negative request cap")
	}
	if _, err := loadRequests(plain, "nope", "", 0, 0, 0); err == nil {
		t.Error("accepted unknown format")
	}
	if _, err := loadRequests(filepath.Join(dir, "missing"), "spc", "", 0, 0, 0); err == nil {
		t.Error("accepted missing file")
	}
}

func TestMaxBlock(t *testing.T) {
	t.Parallel()
	reqs := []core.Request{{Block: 3}, {Block: 17}, {Block: 5}}
	if got := maxBlock(reqs); got != 17 {
		t.Errorf("maxBlock = %v", got)
	}
	if got := maxBlock(nil); got != 0 {
		t.Errorf("maxBlock(nil) = %v", got)
	}
}

func TestRunExitCodes(t *testing.T) {
	small := []string{"-disks", "12", "-requests", "200", "-blocks", "100"}
	cases := []struct {
		name   string
		args   []string
		code   int
		stderr string // required substring of stderr
	}{
		{"help", []string{"-h"}, 0, "Usage of esched"},
		{"ok", small, 0, ""},
		{"bad flag value", []string{"-disks", "x"}, 2, "invalid value"},
		{"unknown scheduler", append([]string{"-scheduler", "nope"}, small...), 2, `unknown scheduler "nope"`},
		{"unknown workload", []string{"-workload", "nope"}, 2, `unknown workload "nope"`},
		{"unknown trace format", []string{"-trace", "t.spc", "-format", "nope"}, 2, `unknown format "nope"`},
		{"zero blocks", []string{"-blocks", "0"}, 2, "-blocks must be positive, got 0"},
		{"bad cost", append([]string{"-alpha", "2"}, small...), 2, "esched:"},
		{"doctor with compare", append([]string{"-compare", "-doctor"}, small...), 2, "not to -compare"},
		{"missing trace", []string{"-trace", filepath.Join(t.TempDir(), "missing")}, 1, "esched:"},
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

// TestRunStateLogWriteErrorFails runs with the state log on a device that
// accepts the open but fails every write: the lost CSV must fail the run.
func TestRunStateLogWriteErrorFails(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full:", err)
	}
	var stdout, stderr bytes.Buffer
	args := []string{"-statelog", "/dev/full", "-requests", "2000", "-blocks", "500", "-disks", "12"}
	if code := run(args, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "state log /dev/full") {
		t.Errorf("stderr %q does not name the state log", stderr.String())
	}
}
