package metrics

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestResponseTimesEmpty(t *testing.T) {
	t.Parallel()
	var r ResponseTimes
	if r.Count() != 0 || r.Mean() != 0 || r.Max() != 0 {
		t.Error("zero-value ResponseTimes not empty")
	}
	if got := r.Percentile(50); got != 0 {
		t.Errorf("Percentile on empty = %v", got)
	}
	ccdf := r.CCDF([]time.Duration{time.Second})
	if ccdf[0] != 0 {
		t.Errorf("CCDF on empty = %v", ccdf)
	}
}

func TestResponseTimesMeanMax(t *testing.T) {
	t.Parallel()
	var r ResponseTimes
	for _, d := range []time.Duration{time.Second, 3 * time.Second, 2 * time.Second} {
		r.Add(d)
	}
	if got := r.Mean(); got != 2*time.Second {
		t.Errorf("Mean = %v, want 2s", got)
	}
	if got := r.Max(); got != 3*time.Second {
		t.Errorf("Max = %v, want 3s", got)
	}
}

func TestResponseTimesPercentile(t *testing.T) {
	t.Parallel()
	var r ResponseTimes
	for i := 1; i <= 100; i++ {
		r.Add(time.Duration(i) * time.Millisecond)
	}
	tests := []struct {
		p    float64
		want time.Duration
	}{
		{50, 50 * time.Millisecond},
		{90, 90 * time.Millisecond},
		{100, 100 * time.Millisecond},
		{1, 1 * time.Millisecond},
	}
	for _, tc := range tests {
		if got := r.Percentile(tc.p); got != tc.want {
			t.Errorf("Percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestResponseTimesPercentilePanics(t *testing.T) {
	t.Parallel()
	var r ResponseTimes
	r.Add(time.Second)
	for _, p := range []float64{0, -5, 101, math.NaN()} {
		p := p
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Percentile(%v) did not panic", p)
				}
			}()
			r.Percentile(p)
		}()
	}
}

func TestResponseTimesNegativePanics(t *testing.T) {
	t.Parallel()
	var r ResponseTimes
	defer func() {
		if recover() == nil {
			t.Error("Add(-1) did not panic")
		}
	}()
	r.Add(-time.Second)
}

func TestCCDF(t *testing.T) {
	t.Parallel()
	var r ResponseTimes
	for _, d := range []time.Duration{1, 2, 3, 4} {
		r.Add(d * time.Second)
	}
	got := r.CCDF([]time.Duration{0, time.Second, 2 * time.Second, 4 * time.Second, 5 * time.Second})
	want := []float64{1, 0.75, 0.5, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("CCDF[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestCCDFIsMonotoneNonIncreasing(t *testing.T) {
	t.Parallel()
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var r ResponseTimes
		for i := 0; i < int(n)+1; i++ {
			r.Add(time.Duration(rng.Int63n(int64(10 * time.Second))))
		}
		ts := LogSpace(time.Millisecond, 20*time.Second, 30)
		ccdf := r.CCDF(ts)
		for i := 1; i < len(ccdf); i++ {
			if ccdf[i] > ccdf[i-1] {
				return false
			}
		}
		return ccdf[0] <= 1 && ccdf[len(ccdf)-1] >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLogSpace(t *testing.T) {
	t.Parallel()
	ts := LogSpace(time.Millisecond, time.Second, 4)
	if len(ts) != 4 {
		t.Fatalf("len = %d", len(ts))
	}
	if ts[0] != time.Millisecond || ts[3] != time.Second {
		t.Errorf("endpoints = %v, %v", ts[0], ts[3])
	}
	for i := 1; i < len(ts); i++ {
		if ts[i] <= ts[i-1] {
			t.Errorf("not increasing at %d: %v", i, ts)
		}
	}
}

func TestLogSpacePanicsOnBadArgs(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		lo, hi time.Duration
		n      int
	}{
		{0, time.Second, 4},
		{time.Second, time.Second, 4},
		{time.Millisecond, time.Second, 1},
	} {
		tc := tc
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LogSpace(%v,%v,%d) did not panic", tc.lo, tc.hi, tc.n)
				}
			}()
			LogSpace(tc.lo, tc.hi, tc.n)
		}()
	}
}

func TestNormalize(t *testing.T) {
	t.Parallel()
	got := Normalize([]float64{2, 4, 8}, 4)
	want := []float64{0.5, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Normalize[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if v := Normalize([]float64{1}, 0)[0]; !math.IsInf(v, 1) {
		t.Errorf("zero base: got %v, want +Inf", v)
	}
}

func TestMoments(t *testing.T) {
	t.Parallel()
	var m Moments
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		m.Add(x)
	}
	if m.N() != 8 {
		t.Errorf("N = %d", m.N())
	}
	if math.Abs(m.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", m.Mean())
	}
	// Sample variance of the classic dataset is 32/7.
	if math.Abs(m.Variance()-32.0/7) > 1e-12 {
		t.Errorf("Variance = %v, want %v", m.Variance(), 32.0/7)
	}
	if math.Abs(m.Stddev()-math.Sqrt(32.0/7)) > 1e-12 {
		t.Errorf("Stddev = %v", m.Stddev())
	}
}

func TestMomentsFewSamples(t *testing.T) {
	t.Parallel()
	var m Moments
	if m.Variance() != 0 {
		t.Error("variance of empty != 0")
	}
	m.Add(3)
	if m.Variance() != 0 {
		t.Error("variance of single sample != 0")
	}
	if m.Mean() != 3 {
		t.Errorf("Mean = %v", m.Mean())
	}
}

// Property: Moments matches a two-pass computation.
func TestMomentsMatchesTwoPass(t *testing.T) {
	t.Parallel()
	f := func(xs []float64) bool {
		clean := make([]float64, 0, len(xs))
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				clean = append(clean, x)
			}
		}
		if len(clean) < 2 {
			return true
		}
		var m Moments
		sum := 0.0
		for _, x := range clean {
			m.Add(x)
			sum += x
		}
		mean := sum / float64(len(clean))
		ss := 0.0
		for _, x := range clean {
			ss += (x - mean) * (x - mean)
		}
		variance := ss / float64(len(clean)-1)
		return math.Abs(m.Mean()-mean) < 1e-6*(1+math.Abs(mean)) &&
			math.Abs(m.Variance()-variance) < 1e-6*(1+variance)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestResponseTimesQueriesAreReadOnly pins that no query writes to the
// samples: an unordered value with repeats, a larger unordered value and
// an empty one answer Percentile and CCDF with their samples left
// unchanged, so cached results can be shared across goroutines.
func TestResponseTimesQueriesAreReadOnly(t *testing.T) {
	var repeats, added, empty ResponseTimes
	for _, d := range []time.Duration{5, 2, 9, 2, 1, 7, 3, 3, 8, 0, 4, 6, 2, 5, 9, 1, 7, 3, 6, 4} {
		repeats.Add(d)
	}
	for i := 0; i < 500; i++ {
		added.Add(time.Duration((i * 7919) % 97))
	}
	thresholds := []time.Duration{0, 2, 5, 50}
	for name, r := range map[string]*ResponseTimes{"added": &added, "repeats": &repeats, "empty": &empty} {
		before := slices.Clone(r.samples)
		_ = r.CCDF(thresholds)
		for _, p := range []float64{1, 50, 90, 99, 100} {
			_ = r.Percentile(p)
		}
		if !slices.Equal(before, r.samples) {
			t.Errorf("%s: queries rewrote the samples:\n%v\n%v", name, before, r.samples)
		}
	}
}
