package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func testSpec(t *testing.T) (string, *spec) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return root, sp
}

// smoke is a test-size run configuration.
func smoke(t *testing.T, seed int64, trace bool) runConfig {
	return runConfig{
		seed:      seed,
		seconds:   time.Second,
		trace:     trace,
		smoke:     true,
		goldenDir: t.TempDir(),
	}
}

// TestWorkloadsSmoke runs every workload at test size with the same
// correctness checks as a timed run, and requires the end-to-end metrics
// it prints to be exactly the ones BENCHMARK.json declares.
func TestWorkloadsSmoke(t *testing.T) {
	t.Parallel()
	_, sp := testSpec(t)
	for _, w := range sp.Workloads {
		w := w.Name
		t.Run(w, func(t *testing.T) {
			r := runWorkload(w, smoke(t, 1, false), sp)
			if !r.correct() {
				t.Fatalf("incorrect run: failed %d of %d, errors %v", r.Failed, r.Attempted, r.Errors)
			}
			if r.Attempted < 1 {
				t.Fatalf("attempted %d", r.Attempted)
			}
			// The parent times set-up from process start for a workload
			// that reports ReadyNS.
			if len(r.Samples["setup_s"]) == 0 && r.ReadyNS == 0 {
				t.Fatal("no set-up measurement")
			}
			r.setMedians()
			if r.ReadyNS != 0 {
				r.Metrics["setup_s"] = 0
			}
			if err := sp.checkNames(r.Metrics, false); err != nil {
				t.Fatal(err)
			}
			for name, v := range r.Metrics {
				if name != "setup_s" && !(v > 0) {
					t.Errorf("%s = %v, want > 0", name, v)
				}
			}
		})
	}
}

// TestWorkloadsTraced runs every workload's traced run at test size: the
// per-layer metrics must be exactly those declared (the parent adds
// trace.overhead_frac), the paper replay must match its sweep bit for bit
// (a mismatch is a run error), and every declared layer metric must be
// measured by at least one workload.
func TestWorkloadsTraced(t *testing.T) {
	t.Parallel()
	_, sp := testSpec(t)
	measured := map[string]bool{"trace.overhead_frac": true}
	for _, w := range sp.Workloads {
		w := w.Name
		t.Run(w, func(t *testing.T) {
			r := runWorkload(w, smoke(t, 2, true), sp)
			if !r.correct() {
				t.Fatalf("incorrect traced run: %v", r.Errors)
			}
			r.Metrics["trace.overhead_frac"] = 0
			if err := sp.checkNames(r.Metrics, true); err != nil {
				t.Fatal(err)
			}
			if c := r.Metrics["trace.coverage_frac"]; c < 0.9 || c > 1.01 {
				t.Errorf("trace.coverage_frac = %v, want in [0.9, 1]", c)
			}
			for name, v := range r.Metrics {
				if v != 0 {
					measured[name] = true
				}
			}
		})
	}
	for _, m := range sp.PerLayer {
		if !measured[m.Name] {
			t.Errorf("no workload measures %s", m.Name)
		}
	}
}

// TestGoldenCorruptionFails records a golden output, checks a rerun against
// it, then corrupts one value and requires the rerun to fail.
func TestGoldenCorruptionFails(t *testing.T) {
	_, sp := testSpec(t)
	cfg := smoke(t, 1, false)
	cfg.seconds = 0 // one fleet call
	cfg.writeGolden = true
	if r := runWorkload("fleet-20k", cfg, sp); len(r.Errors) > 0 {
		t.Fatal(r.Errors)
	}
	cfg.writeGolden = false
	if r := runWorkload("fleet-20k", cfg, sp); !r.correct() {
		t.Fatalf("rerun against its own golden: %v", r.Errors)
	}
	path := goldenPath(cfg.goldenDir, fleetGoldenName(cfg), cfg.seed)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var g map[string]string
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatal(err)
	}
	g["SpinUps"] += "1"
	data, _ = json.Marshal(g)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r := runWorkload("fleet-20k", cfg, sp)
	if r.correct() || !strings.Contains(strings.Join(r.Errors, "\n"), "SpinUps") {
		t.Fatalf("corrupted golden passed: errors %v", r.Errors)
	}
}

// TestGoldenFiles pins that the committed golden outputs exist for the
// seeds runs are checked against: 1, and 2, the seed held out for claims.
func TestGoldenFiles(t *testing.T) {
	root, _ := testSpec(t)
	dir := filepath.Join(root, "bench", "golden")
	for _, name := range []string{"paper-10k", "fleet-20k"} {
		for _, seed := range []int64{1, 2} {
			data, err := os.ReadFile(goldenPath(dir, name, seed))
			if err != nil {
				t.Fatal(err)
			}
			var g map[string]string
			if err := json.Unmarshal(data, &g); err != nil {
				t.Fatal(err)
			}
			if name == "paper-10k" && len(g) != 16 {
				t.Errorf("%s seed %d: %d figures, want 16", name, seed, len(g))
			}
		}
	}
}

// TestSpec checks BENCHMARK.json against this command: the same workloads,
// set-up time declared, and every bound in (0, 0.25].
func TestSpec(t *testing.T) {
	root, sp := testSpec(t)
	if len(sp.Workloads) != len(workloadRuns) {
		t.Errorf("%d workloads declared, %d implemented", len(sp.Workloads), len(workloadRuns))
	}
	if _, err := selectWorkloads(sp, ""); err != nil {
		t.Error(err)
	}
	// Set-up time must be declared, with the largest bound, so that work
	// moved into set-up shows.
	setup, largest := metricSpec{}, 0.0
	for _, m := range sp.EndToEnd {
		if m.Name == "setup_s" {
			setup = m
		}
		largest = math.Max(largest, m.Bound)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if setup.Unit != "s" || setup.Better != "lower" || setup.Bound < largest {
		t.Errorf("setup_s declared as %+v; want unit s, lower better, the largest bound", setup)
	}
	for _, p := range sp.Paths {
		if _, err := os.Stat(filepath.Join(root, p)); err != nil {
			t.Error(err)
		}
	}
	if _, err := os.Stat(filepath.Join(root, sp.Command[len(sp.Command)-1])); err != nil {
		t.Error(err)
	}
}

// TestQuartiles pins the quartile rule to Python's
// statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{2, 1}, 0.75, 2.25},
		{[]float64{5}, 5, 5},
		{[]float64{3, 1, 2, 4, 5}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "mean_ms", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "throughput", Better: "higher", Bound: 0.1}
	base := summarize("ms", []float64{100, 101, 99, 100, 100})
	for _, c := range []struct {
		m    metricSpec
		b    []float64
		want string
	}{
		{lower, []float64{102, 101, 103, 102, 102}, "same"},
		{lower, []float64{120, 121, 119, 120, 120}, "worse"},
		{lower, []float64{80, 81, 79, 80, 80}, "better"},
		{higher, []float64{80, 81, 79, 80, 80}, "worse"},
		{lower, []float64{60, 140, 100, 90, 110}, "unresolved"},
		{lower, []float64{60, 90, 70, 95, 97}, "better"},
	} {
		if got := verdict(c.m, base, summarize("ms", c.b)); got != c.want {
			t.Errorf("%s %v: verdict %s, want %s", c.m.Better, c.b, got, c.want)
		}
	}
}
