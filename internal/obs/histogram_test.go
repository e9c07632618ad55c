package obs

import (
	"strings"
	"testing"
)

// TestHistogramBucketBoundaries pins the bucket-assignment rule: a sample
// exactly on an upper bound belongs to that bucket (Prometheus `le`
// semantics), samples below the first bound land in the first bucket, and
// samples above every bound are counted only by +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	t.Parallel()
	c := NewCollector()
	h := c.Histogram("test_hist", "Boundary probe.", []float64{1, 2.5, 10})
	for _, v := range []float64{
		0.1, // below first bound -> bucket le=1
		1,   // exactly on a bound -> bucket le=1, not le=2.5
		1.0000001,
		2.5, // exactly on a bound -> le=2.5
		10,  // exactly the last bound -> le=10
		11,  // above all bounds -> only +Inf
	} {
		h.Observe(v)
	}
	if got := h.Count(); got != 6 {
		t.Fatalf("Count = %d, want 6", got)
	}
	if got, want := h.Sum(), 0.1+1+1.0000001+2.5+10+11; got != want {
		t.Fatalf("Sum = %v, want %v", got, want)
	}
	out := c.String()
	for _, want := range []string{
		`test_hist_bucket{le="1"} 2`,    // cumulative: 0.1 and 1
		`test_hist_bucket{le="2.5"} 4`,  // + 1.0000001 and 2.5
		`test_hist_bucket{le="10"} 5`,   // + 10
		`test_hist_bucket{le="+Inf"} 6`, // + 11, the overflow sample
		`test_hist_count 6`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q:\n%s", want, out)
		}
	}
}

// TestHistogramBoundaryValuesMatchDepthBuckets drives the exporter's own
// queue-depth buckets through integer depths: a depth equal to a bound
// stays in that bucket, mirroring what analyze.DepthHeatmap assumes.
func TestHistogramBoundaryValuesMatchDepthBuckets(t *testing.T) {
	t.Parallel()
	c := NewCollector()
	h := c.Histogram("depth_probe", "Depth boundary probe.", DepthBuckets())
	bounds := DepthBuckets()
	for _, b := range bounds {
		h.Observe(b) // each exactly on its bound
	}
	out := c.String()
	// The first bucket holds exactly one sample (its own bound); the last
	// holds all of them cumulatively.
	if want := `depth_probe_bucket{le="1"} 1`; !strings.Contains(out, want) {
		t.Errorf("render lacks %q:\n%s", want, out)
	}
	lastProbe := `depth_probe_bucket{le="+Inf"} ` // all samples cumulative
	if !strings.Contains(out, lastProbe) {
		t.Errorf("render lacks +Inf bucket:\n%s", out)
	}
	if got := h.Count(); got != uint64(len(bounds)) {
		t.Errorf("Count = %d, want %d", got, len(bounds))
	}
}

// TestHistogramEmptyRendersZeroBuckets: a registered but never-observed
// histogram still renders complete, all-zero cumulative buckets.
func TestHistogramEmptyRendersZeroBuckets(t *testing.T) {
	t.Parallel()
	c := NewCollector()
	c.Histogram("never_hist", "Empty probe.", []float64{1, 2})
	out := c.String()
	for _, want := range []string{
		`never_hist_bucket{le="1"} 0`,
		`never_hist_bucket{le="2"} 0`,
		`never_hist_bucket{le="+Inf"} 0`,
		`never_hist_count 0`,
		`never_hist_sum 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q:\n%s", want, out)
		}
	}
}
