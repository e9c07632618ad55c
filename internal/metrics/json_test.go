package metrics

import (
	"encoding/json"
	"testing"
	"time"
)

// TestResponseTimesJSONRoundTrip pins the persistence format the sweep
// cache's disk tier relies on: samples survive a marshal/unmarshal cycle
// bit-exactly, in order, and the restored value answers every summary
// query identically.
func TestResponseTimesJSONRoundTrip(t *testing.T) {
	var r ResponseTimes
	for _, d := range []time.Duration{
		7 * time.Millisecond, time.Microsecond, 0,
		3*time.Second + 1, time.Nanosecond, 7 * time.Millisecond,
	} {
		r.Add(d)
	}
	_ = r.Percentile(90) // force sorted state; it must not leak into the encoding

	raw, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	var back ResponseTimes
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Count() != r.Count() {
		t.Fatalf("count %d != %d", back.Count(), r.Count())
	}
	for i := range r.samples {
		if r.samples[i] != back.samples[i] {
			t.Fatalf("sample %d: %v != %v", i, r.samples[i], back.samples[i])
		}
	}
	if r.Mean() != back.Mean() || r.Max() != back.Max() || r.Percentile(90) != back.Percentile(90) {
		t.Fatal("summary statistics differ after round trip")
	}

	// A second marshal of the restored value must be byte-identical, so
	// repeated cache writes are stable.
	raw2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(raw2) {
		t.Fatalf("re-encoding unstable:\n%s\n%s", raw, raw2)
	}
}

func TestResponseTimesUnmarshalResetsState(t *testing.T) {
	var r ResponseTimes
	r.Add(time.Second)
	if err := json.Unmarshal([]byte(`[5,3]`), &r); err != nil {
		t.Fatal(err)
	}
	if r.Count() != 2 || r.Max() != 5 {
		t.Fatalf("unmarshal did not replace samples: count=%d max=%v", r.Count(), r.Max())
	}
	if got := r.Percentile(100); got != 5 {
		t.Fatalf("percentile on restored samples = %v, want 5ns", got)
	}
}

// TestResponseTimesSortedQueriesAreReadOnly pins that queries never write
// to samples already in order: a restored value and a value that only saw
// ordered Adds answer Percentile and CCDF without touching their state, so
// cached results can be shared across goroutines.
func TestResponseTimesSortedQueriesAreReadOnly(t *testing.T) {
	var restored ResponseTimes
	if err := json.Unmarshal([]byte(`[1,2,2,5]`), &restored); err != nil {
		t.Fatal(err)
	}
	if !restored.sorted {
		t.Fatal("restoring ordered samples did not mark them sorted")
	}
	var added, empty ResponseTimes
	for _, d := range []time.Duration{1, 2, 2, 5} {
		added.Add(d)
	}
	thresholds := []time.Duration{0, 2, 5}
	for name, r := range map[string]*ResponseTimes{"added": &added, "empty": &empty} {
		_ = r.CCDF(thresholds)
		_ = r.Percentile(50)
		if r.sorted {
			t.Errorf("%s: a query wrote the sorted flag of already-sorted samples", name)
		}
	}
}
