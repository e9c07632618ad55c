package metrics

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// TestPercentileSingleSample pins the nearest-rank method's degenerate
// case: with one sample, every percentile is that sample.
func TestPercentileSingleSample(t *testing.T) {
	t.Parallel()
	var r ResponseTimes
	r.Add(7 * time.Millisecond)
	for _, p := range []float64{0.001, 1, 50, 99, 99.999, 100} {
		if got := r.Percentile(p); got != 7*time.Millisecond {
			t.Errorf("Percentile(%v) = %v, want 7ms", p, got)
		}
	}
	if got := r.Mean(); got != 7*time.Millisecond {
		t.Errorf("Mean = %v, want 7ms", got)
	}
	if got := r.Max(); got != 7*time.Millisecond {
		t.Errorf("Max = %v, want 7ms", got)
	}
}

// TestPercentileAllEqualSamples: identical samples collapse the whole
// distribution to one value at every percentile.
func TestPercentileAllEqualSamples(t *testing.T) {
	t.Parallel()
	var r ResponseTimes
	for i := 0; i < 1000; i++ {
		r.Add(42 * time.Microsecond)
	}
	for _, p := range []float64{0.1, 25, 50, 75, 95, 99, 100} {
		if got := r.Percentile(p); got != 42*time.Microsecond {
			t.Errorf("Percentile(%v) = %v, want 42µs", p, got)
		}
	}
	if got := r.Mean(); got != 42*time.Microsecond {
		t.Errorf("Mean = %v, want 42µs", got)
	}
}

// TestPercentileRankFloor: tiny percentiles floor the nearest rank at the
// smallest sample rather than indexing below the population.
func TestPercentileRankFloor(t *testing.T) {
	t.Parallel()
	var r ResponseTimes
	r.Add(5 * time.Millisecond)
	r.Add(1 * time.Millisecond)
	r.Add(3 * time.Millisecond)
	if got := r.Percentile(0.0001); got != time.Millisecond {
		t.Errorf("Percentile(0.0001) = %v, want the minimum 1ms", got)
	}
	if got := r.Percentile(100); got != 5*time.Millisecond {
		t.Errorf("Percentile(100) = %v, want the maximum 5ms", got)
	}
	// Nearest rank with n=3: p=34 → rank ceil(1.02)=2 → 3ms.
	if got := r.Percentile(34); got != 3*time.Millisecond {
		t.Errorf("Percentile(34) = %v, want the median 3ms", got)
	}
}

// TestPercentileZeroDurationSamples: zero is a legal latency (instant
// completion) and must survive percentile queries.
func TestPercentileZeroDurationSamples(t *testing.T) {
	t.Parallel()
	var r ResponseTimes
	r.Add(0)
	r.Add(0)
	r.Add(time.Second)
	if got := r.Percentile(50); got != 0 {
		t.Errorf("Percentile(50) = %v, want 0", got)
	}
	if got := r.Percentile(100); got != time.Second {
		t.Errorf("Percentile(100) = %v, want 1s", got)
	}
}

// TestPercentileMatchesSortedNearestRank checks the selection against the
// sort-based nearest rank on random sample sets with many duplicates, in
// random, ascending, descending and organ-pipe order (the layouts that
// defeat a naive pivot), small enough to be sorted outright and large
// enough to take the selection's partitioning rounds.
func TestPercentileMatchesSortedNearestRank(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(40)
		if trial%4 == 0 {
			n = 1 + rng.Intn(20000)
		}
		distinct := 1 + rng.Intn(n)
		samples := make([]time.Duration, n)
		for i := range samples {
			samples[i] = time.Duration(rng.Intn(distinct))
		}
		switch trial % 5 {
		case 1:
			slices.Sort(samples)
		case 2:
			slices.Sort(samples)
			slices.Reverse(samples)
		case 3:
			slices.Sort(samples)
			slices.Reverse(samples[n/2:])
		}
		var r ResponseTimes
		for _, d := range samples {
			r.Add(d)
		}
		sorted := slices.Clone(samples)
		slices.Sort(sorted)
		for _, p := range []float64{1, 50, 90, 99, 100} {
			rank := max(1, int(math.Ceil(p/100*float64(n))))
			if got, want := r.Percentile(p), sorted[rank-1]; got != want {
				t.Fatalf("trial %d (n=%d, %d distinct): Percentile(%v) = %v, want %v", trial, n, distinct, p, got, want)
			}
		}
	}
}
