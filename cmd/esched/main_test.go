package main

import (
	"compress/gzip"
	"os"
	"path/filepath"
	"testing"

	"repro"
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
	reqs := repro.FinancialLike(200, 100, 3)

	plain := filepath.Join(dir, "t.spc")
	f, err := os.Create(plain)
	if err != nil {
		t.Fatal(err)
	}
	if err := repro.WriteTrace(f, repro.FormatSPC, reqs); err != nil {
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
	if err := repro.WriteTrace(gz, repro.FormatSPC, reqs); err != nil {
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
	reqs := []repro.Request{{Block: 3}, {Block: 17}, {Block: 5}}
	if got := maxBlock(reqs); got != 17 {
		t.Errorf("maxBlock = %v", got)
	}
	if got := maxBlock(nil); got != 0 {
		t.Errorf("maxBlock(nil) = %v", got)
	}
}
