package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// fuzzStatuses are the only statuses the schedule endpoints may answer a
// POST with: success, malformed input, unknown block, backpressure,
// draining and an expired deadline. Anything else (a 500, or a panic that
// kills the handler) is a bug.
var fuzzStatuses = map[int]bool{
	http.StatusOK:                  true,
	http.StatusBadRequest:          true,
	http.StatusUnprocessableEntity: true,
	http.StatusTooManyRequests:     true,
	http.StatusServiceUnavailable:  true,
	http.StatusGatewayTimeout:      true,
}

// fuzzPost builds a small live engine, POSTs body to path through the
// server's handler, checks the status, then drains: the drain must succeed
// and every decision the engine counted must have been served.
func fuzzPost(t *testing.T, path, body string) *httptest.ResponseRecorder {
	cfg, _ := testConfig(t, 4, 20, 2)
	cfg.MaxInFlight = 64
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	NewServer(e, nil).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	if !fuzzStatuses[rec.Code] {
		t.Errorf("POST %s %q: status %d: %s", path, body, rec.Code, rec.Body.String())
	}
	res, err := e.Drain()
	if err != nil {
		t.Fatalf("POST %s %q: drain: %v", path, body, err)
	}
	if res.Served != int(e.Decisions()) {
		t.Fatalf("POST %s %q: served %d of %d decisions", path, body, res.Served, e.Decisions())
	}
	return rec
}

// FuzzScheduleJSON drives POST /v1/schedule with arbitrary bodies.
func FuzzScheduleJSON(f *testing.F) {
	f.Add(`{"block": 3}`)
	f.Add(`{"block": 3, "size": 8192, "deadline_ms": -1}`)
	f.Add(`{"block": 99999}`)
	f.Add(`{"block": -1}`)
	f.Add(`{"block": 1, "size": -1}`)
	f.Add(`{"block": 3, "deadline_ms": 9223372036854775807}`)
	f.Add(`{"block": 3, "bogus": 1}`)
	f.Add(`{"block": 3, `)
	f.Fuzz(func(t *testing.T, body string) {
		rec := fuzzPost(t, "/v1/schedule", body)
		if rec.Code == http.StatusOK && !strings.Contains(rec.Body.String(), `"disk":`) {
			t.Errorf("%q: 200 without a decision: %s", body, rec.Body.String())
		}
	})
}

// FuzzScheduleBatch drives POST /v1/schedule/batch with arbitrary bodies.
func FuzzScheduleBatch(f *testing.F) {
	f.Add("0 1 2 19\n7")
	f.Add("1 99999")
	f.Add("")
	f.Add("1 -2")
	f.Add("9223372036854775807 18446744073709551616")
	f.Fuzz(func(t *testing.T, body string) {
		rec := fuzzPost(t, "/v1/schedule/batch", body)
		if rec.Code != http.StatusOK {
			return
		}
		lines := strings.Split(strings.TrimRight(rec.Body.String(), "\n"), "\n")
		if want := len(strings.Fields(body)); len(lines) != want {
			t.Errorf("%q: %d reply lines for %d blocks", body, len(lines), want)
		}
	})
}
