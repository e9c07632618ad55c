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
	_ = r.Percentile(90) // a query must not change the encoding

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

// TestResponseTimesQueriesAreReadOnly pins that no query writes to the
// samples: an unordered value, a value restored from JSON and an empty one
// answer Percentile and CCDF with their samples left byte-identical, so
// cached results can be shared across goroutines.
func TestResponseTimesQueriesAreReadOnly(t *testing.T) {
	var restored ResponseTimes
	if err := json.Unmarshal([]byte(`[5,2,9,2,1,7,3,3,8,0,4,6,2,5,9,1,7,3,6,4]`), &restored); err != nil {
		t.Fatal(err)
	}
	var added, empty ResponseTimes
	for i := 0; i < 500; i++ {
		added.Add(time.Duration((i * 7919) % 97))
	}
	thresholds := []time.Duration{0, 2, 5, 50}
	for name, r := range map[string]*ResponseTimes{"added": &added, "restored": &restored, "empty": &empty} {
		before, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		_ = r.CCDF(thresholds)
		for _, p := range []float64{1, 50, 90, 99, 100} {
			_ = r.Percentile(p)
		}
		after, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if string(before) != string(after) {
			t.Errorf("%s: queries rewrote the samples:\n%s\n%s", name, before, after)
		}
	}
}
