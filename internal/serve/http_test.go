package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

func newTestServer(t *testing.T, mut func(*Config)) (*Engine, *httptest.Server, *obs.Collector) {
	t.Helper()
	cfg, _ := testConfig(t, 6, 40, 2)
	col := obs.NewCollector()
	cfg.Collector = col
	if mut != nil {
		mut(&cfg)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(e, col).Handler())
	t.Cleanup(ts.Close)
	return e, ts, col
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func TestHTTPSchedule(t *testing.T) {
	t.Parallel()
	e, ts, _ := newTestServer(t, nil)
	resp, body := postJSON(t, ts.URL+"/v1/schedule", `{"block": 3, "size": 8192}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var dec ScheduleResponse
	if err := json.Unmarshal(body, &dec); err != nil {
		t.Fatalf("bad response %s: %v", body, err)
	}
	if dec.Block != 3 || dec.Disk < 0 || dec.Disk >= 6 || dec.State == "" {
		t.Fatalf("decision %+v", dec)
	}

	for _, bad := range []struct {
		body string
		want int
		code string
	}{
		{`{"block": 3, `, http.StatusBadRequest, "bad_request"},
		{`{"block": -1}`, http.StatusBadRequest, "bad_request"},
		{`{"block": 3, "bogus": 1}`, http.StatusBadRequest, "bad_request"},
		{`{"block": 99999}`, http.StatusUnprocessableEntity, "no_replica"},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/schedule", bad.body)
		if resp.StatusCode != bad.want {
			t.Errorf("%q: status %d, want %d", bad.body, resp.StatusCode, bad.want)
			continue
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Code != bad.code {
			t.Errorf("%q: error body %s (code %q, want %q)", bad.body, body, er.Code, bad.code)
		}
	}
	if resp, _ := http.Get(ts.URL + "/v1/schedule"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/schedule: status %d", resp.StatusCode)
	}
	if _, err := e.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestHTTPOversizedTransfer: a transfer larger than one disk overflowed
// the disk model's service time and crashed the run once the chosen disk
// spun up. The handler must refuse it and keep serving.
func TestHTTPOversizedTransfer(t *testing.T) {
	t.Parallel()
	e, ts, _ := newTestServer(t, nil)
	for _, body := range []string{
		`{"block":1,"size":4611686018427387904}`,
		`{"block":1,"size":-1}`,
	} {
		resp, b := postJSON(t, ts.URL+"/v1/schedule", body)
		var er ErrorResponse
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(b, &er) != nil || er.Code != "bad_request" {
			t.Fatalf("%s: status %d, body %s; want 400 bad_request", body, resp.StatusCode, b)
		}
	}
	if resp, b := postJSON(t, ts.URL+"/v1/schedule", `{"block":1}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up request: status %d: %s", resp.StatusCode, b)
	}
	res, err := e.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != 1 || res.Dropped != 0 {
		t.Fatalf("served/dropped = %d/%d, want 1/0", res.Served, res.Dropped)
	}
}

func TestHTTPBatch(t *testing.T) {
	t.Parallel()
	e, ts, _ := newTestServer(t, nil)
	resp, body := postJSON(t, ts.URL+"/v1/schedule/batch", "0 1 2 39\n7")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("%d lines, want 5: %q", len(lines), body)
	}
	for i, ln := range lines {
		fields := strings.Fields(ln)
		if len(fields) != 2 || fields[0] == "!" {
			t.Fatalf("line %d = %q, want \"disk at_us\"", i, ln)
		}
		d, err := strconv.Atoi(fields[0])
		if err != nil || d < 0 || d >= 6 {
			t.Fatalf("line %d: bad disk %q", i, fields[0])
		}
	}
	// Unknown blocks come back as in-band rejections, not a failed batch.
	resp, body = postJSON(t, ts.URL+"/v1/schedule/batch", "1 99999")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mixed batch status %d", resp.StatusCode)
	}
	lines = strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[1], "! no_replica") {
		t.Fatalf("mixed batch body %q", body)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/schedule/batch", "  "); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/schedule/batch", "12x"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad block: status %d", resp.StatusCode)
	}
	if _, err := e.Drain(); err != nil {
		t.Fatal(err)
	}
}

func TestHTTPBackpressure429(t *testing.T) {
	t.Parallel()
	e, ts, _ := newTestServer(t, func(c *Config) { c.MaxInFlight = 1 })
	// Hold the engine lock so the first request occupies the only slot.
	blockLoop(e, 150*time.Millisecond)
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, _ := postJSON(t, ts.URL+"/v1/schedule", `{"block": 1}`)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("first request: status %d", resp.StatusCode)
		}
	}()
	waitFor(t, func() bool { return e.inflight.Load() == 1 })
	resp, body := postJSON(t, ts.URL+"/v1/schedule", `{"block": 2}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("no Retry-After header on 429")
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Code != "queue_full" {
		t.Errorf("429 body %s", body)
	}
	<-done
	if _, err := e.Drain(); err != nil {
		t.Fatal(err)
	}
}

func TestHTTPDeadline504(t *testing.T) {
	t.Parallel()
	e, ts, _ := newTestServer(t, nil)
	blockLoop(e, 100*time.Millisecond)
	resp, body := postJSON(t, ts.URL+"/v1/schedule", `{"block": 1, "deadline_ms": 1}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Code != "deadline" {
		t.Errorf("504 body %s", body)
	}
	if _, err := e.Drain(); err != nil {
		t.Fatal(err)
	}
}

func TestHTTPHealthStateAndDrain(t *testing.T) {
	t.Parallel()
	e, ts, _ := newTestServer(t, nil)
	resp, body := func() (*http.Response, []byte) {
		r, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(r.Body)
		r.Body.Close()
		return r, b
	}()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(string(body), "ok") {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
	if _, err := e.Submit(core.Request{Block: 5}, 0); err != nil {
		t.Fatal(err)
	}
	r, err := http.Get(ts.URL + "/state")
	if err != nil {
		t.Fatal(err)
	}
	var st StateResponse
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if len(st.Disks) != 6 || st.Decisions != 1 {
		t.Fatalf("state %+v", st)
	}
	if _, err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	// After drain: schedule → 503, healthz → 503.
	resp2, body2 := postJSON(t, ts.URL+"/v1/schedule", `{"block": 1}`)
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain schedule: %d %s", resp2.StatusCode, body2)
	}
	if r, _ := http.Get(ts.URL + "/healthz"); r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain healthz: %d", r.StatusCode)
	}
}

// TestMetricsBitExactEnergy is the acceptance check that /metrics energy
// totals reconcile bit-exactly to the power meters at drain.
func TestMetricsBitExactEnergy(t *testing.T) {
	t.Parallel()
	e, ts, _ := newTestServer(t, nil)
	for i := 0; i < 120; i++ {
		if _, err := e.Submit(core.Request{Block: core.BlockID(i % 40)}, 0); err != nil {
			t.Fatal(err)
		}
	}
	res, err := e.Drain()
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	// Every per-state series must equal the meter total for that state
	// bit-exactly (the Reconcile mechanism), and their sum must match the
	// result's grand total up to summation order.
	byName := map[string]float64{}
	for st := core.StateStandby; st <= core.StateSpinDown; st++ {
		byName[st.String()] = res.EnergyByState[st]
	}
	total, seen := 0.0, 0
	for _, ln := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(ln, "esched_energy_joules_total{") {
			continue
		}
		fields := strings.Fields(ln)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("bad sample %q: %v", ln, err)
		}
		name := ln[strings.Index(ln, `state="`)+len(`state="`):]
		name = name[:strings.Index(name, `"`)]
		want, ok := byName[name]
		if !ok {
			t.Fatalf("unexpected state series %q", ln)
		}
		if v != want {
			t.Fatalf("state %q: exported %v != meter %v (not bit-exact)", name, v, want)
		}
		total += v
		seen++
	}
	if seen == 0 {
		t.Fatalf("no energy series in export:\n%s", body)
	}
	if math.Abs(total-res.Energy) > 1e-9 {
		t.Fatalf("exported energy %v != result total %v", total, res.Energy)
	}
	// The serving counters are exported too.
	if !strings.Contains(string(body), `esched_serve_requests_total{outcome="decided"} 120`) {
		t.Errorf("decided counter missing or wrong:\n%s", grepLines(string(body), "esched_serve"))
	}
}

func grepLines(s, substr string) string {
	var out []string
	for _, ln := range strings.Split(s, "\n") {
		if strings.Contains(ln, substr) {
			out = append(out, ln)
		}
	}
	return fmt.Sprint(strings.Join(out, "\n"))
}
