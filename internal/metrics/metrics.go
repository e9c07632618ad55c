// Package metrics collects and summarizes simulation measurements: request
// response times (means, percentiles, inverse CDFs for the paper's Figures
// 8, 12, 13 and 16), scalar series normalization (Figures 6, 7, 14, 15) and
// running moments.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"time"
)

// ResponseTimes accumulates request response-time samples. The zero value
// is ready to use. Queries never write to the samples, so a value no
// longer being added to is safe to query from several goroutines at once.
type ResponseTimes struct {
	samples []time.Duration
}

// Add records one sample.
func (r *ResponseTimes) Add(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("metrics: negative response time %s", d))
	}
	r.samples = append(r.samples, d)
}

// Grow preallocates capacity for n additional samples, so a run that knows
// its request count up front records every sample without growing the
// buffer.
func (r *ResponseTimes) Grow(n int) {
	if free := cap(r.samples) - len(r.samples); free < n {
		grown := make([]time.Duration, len(r.samples), len(r.samples)+n)
		copy(grown, r.samples)
		r.samples = grown
	}
}

// Count returns the number of samples.
func (r *ResponseTimes) Count() int { return len(r.samples) }

// Mean returns the average sample, or zero when empty.
func (r *ResponseTimes) Mean() time.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	var total time.Duration
	for _, d := range r.samples {
		total += d
	}
	return total / time.Duration(len(r.samples))
}

// Max returns the largest sample, or zero when empty.
func (r *ResponseTimes) Max() time.Duration {
	var m time.Duration
	for _, d := range r.samples {
		if d > m {
			m = d
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 < p <= 100) using the
// nearest-rank method, or zero when empty. It selects the rank in O(n) on a
// scratch copy of the samples.
func (r *ResponseTimes) Percentile(p float64) time.Duration {
	if p <= 0 || p > 100 || math.IsNaN(p) {
		panic(fmt.Sprintf("metrics: percentile %v outside (0,100]", p))
	}
	if len(r.samples) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(r.samples))))
	if rank < 1 {
		rank = 1
	}
	return nth(slices.Clone(r.samples), rank-1)
}

// nth returns the k-th smallest (0-based) of s, reordering s. Each round
// splits s three ways around a median-of-three pivot, so runs of equal
// samples cost one round; past a depth budget it sorts what is left, which
// bounds the worst case at O(n log n).
func nth(s []time.Duration, k int) time.Duration {
	for budget := 2 * bits.Len(uint(len(s))); len(s) > 16 && budget > 0; budget-- {
		a, b, c := s[0], s[len(s)/2], s[len(s)-1]
		pivot := max(min(a, b), min(max(a, b), c))
		// s[:lt] < pivot, s[lt:i] == pivot, s[gt:] > pivot.
		lt, i, gt := 0, 0, len(s)
		for i < gt {
			switch v := s[i]; {
			case v < pivot:
				s[lt], s[i] = v, s[lt]
				lt++
				i++
			case v > pivot:
				gt--
				s[i], s[gt] = s[gt], v
			default:
				i++
			}
		}
		switch {
		case k < lt:
			s = s[:lt]
		case k >= gt:
			s, k = s[gt:], k-gt
		default:
			return pivot
		}
	}
	slices.Sort(s)
	return s[k]
}

// CCDF returns P[response time > x] for each threshold, reproducing the
// paper's inverse cumulative distribution plots (Figure 12). It sorts a
// copy of the samples when they are not already in order.
func (r *ResponseTimes) CCDF(thresholds []time.Duration) []float64 {
	out := make([]float64, len(thresholds))
	s := r.samples
	if len(s) == 0 {
		return out
	}
	if !slices.IsSorted(s) {
		s = slices.Clone(s)
		slices.Sort(s)
	}
	n := float64(len(s))
	for i, x := range thresholds {
		// Index of first sample > x.
		idx := sort.Search(len(s), func(k int) bool { return s[k] > x })
		out[i] = float64(len(s)-idx) / n
	}
	return out
}

// LogSpace returns n thresholds geometrically spaced between lo and hi
// inclusive, for CCDF plots on log axes.
func LogSpace(lo, hi time.Duration, n int) []time.Duration {
	if n < 2 || lo <= 0 || hi <= lo {
		panic(fmt.Sprintf("metrics: invalid LogSpace(%s,%s,%d)", lo, hi, n))
	}
	out := make([]time.Duration, n)
	ratio := math.Pow(float64(hi)/float64(lo), 1/float64(n-1))
	x := float64(lo)
	for i := 0; i < n; i++ {
		out[i] = time.Duration(x)
		x *= ratio
	}
	out[n-1] = hi
	return out
}

// Normalize divides each value by base; a zero or invalid base yields NaNs,
// surfacing bad baselines instead of hiding them.
func Normalize(vals []float64, base float64) []float64 {
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = v / base
	}
	return out
}

// Moments accumulates streaming mean and variance (Welford's algorithm).
// The zero value is ready to use.
type Moments struct {
	n    int
	mean float64
	m2   float64
}

// Add records one observation.
func (m *Moments) Add(x float64) {
	m.n++
	delta := x - m.mean
	m.mean += delta / float64(m.n)
	m.m2 += delta * (x - m.mean)
}

// N returns the observation count.
func (m *Moments) N() int { return m.n }

// Mean returns the running mean (zero when empty).
func (m *Moments) Mean() float64 { return m.mean }

// Variance returns the sample variance (zero for fewer than two samples).
func (m *Moments) Variance() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n-1)
}

// Stddev returns the sample standard deviation.
func (m *Moments) Stddev() float64 { return math.Sqrt(m.Variance()) }
