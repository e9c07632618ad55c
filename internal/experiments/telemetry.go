package experiments

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
)

// Monitor is the live telemetry hub for parallel sweeps: every sweep run
// with a Scale carrying it reports per-cell progress, and the monitor
// serves the aggregate over HTTP (Serve) as
//
//	/healthz  — liveness, "ok" plus sweep counts
//	/metrics  — Prometheus text (esched_sweep_cells{...} series)
//	/progress — JSON: per-sweep totals and per-cell states
//
// The zero Monitor is not usable; call NewMonitor. A nil *Monitor is a
// valid no-op: Track returns a nil tracker whose methods all no-op, so
// sweeps pay one branch per cell when telemetry is off.
type Monitor struct {
	mu      sync.Mutex
	sweeps  []*SweepTracker
	col     *obs.Collector
	started time.Time
}

// NewMonitor creates an empty telemetry hub.
func NewMonitor() *Monitor {
	return &Monitor{col: obs.NewCollector(), started: time.Now()}
}

// cellState is one cell's lifecycle stage.
type cellState int32

const (
	cellPending cellState = iota
	cellRunning
	cellDone
	cellFailed
)

func (s cellState) String() string {
	switch s {
	case cellRunning:
		return "running"
	case cellDone:
		return "done"
	case cellFailed:
		return "failed"
	default:
		return "pending"
	}
}

// SweepTracker reports one sweep's per-cell completion to its Monitor.
// All methods are safe on a nil receiver and safe for concurrent use by
// the sweep's worker pool.
type SweepTracker struct {
	name  string
	mu    sync.Mutex
	state []cellState
	start []time.Time
	took  []time.Duration
	ended bool

	running, done, failed *obs.Gauge
	total                 *obs.Gauge
}

// Track registers a sweep of n cells under name (unique per call: repeat
// names get a numeric suffix) and returns its tracker. On a nil monitor it
// returns nil, which every SweepTracker method accepts.
func (m *Monitor) Track(name string, n int) *SweepTracker {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, t := range m.sweeps {
		if t.name == name {
			name = fmt.Sprintf("%s#%d", name, len(m.sweeps))
			break
		}
	}
	const cellsName = "esched_sweep_cells"
	const cellsHelp = "Sweep cells by sweep and lifecycle stage."
	t := &SweepTracker{
		name:    name,
		state:   make([]cellState, n),
		start:   make([]time.Time, n),
		took:    make([]time.Duration, n),
		total:   m.col.Gauge(cellsName, cellsHelp, obs.Label{Key: "sweep", Value: name}, obs.Label{Key: "stage", Value: "total"}),
		running: m.col.Gauge(cellsName, cellsHelp, obs.Label{Key: "sweep", Value: name}, obs.Label{Key: "stage", Value: "running"}),
		done:    m.col.Gauge(cellsName, cellsHelp, obs.Label{Key: "sweep", Value: name}, obs.Label{Key: "stage", Value: "done"}),
		failed:  m.col.Gauge(cellsName, cellsHelp, obs.Label{Key: "sweep", Value: name}, obs.Label{Key: "stage", Value: "failed"}),
	}
	t.total.Set(float64(n))
	m.sweeps = append(m.sweeps, t)
	return t
}

// cellStart marks cell i running.
func (t *SweepTracker) cellStart(i int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.state[i] = cellRunning
	t.start[i] = time.Now()
	t.mu.Unlock()
	t.running.Add(1)
}

// cellEnd marks cell i done or failed.
func (t *SweepTracker) cellEnd(i int, err error) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.took[i] = time.Since(t.start[i])
	if err != nil {
		t.state[i] = cellFailed
	} else {
		t.state[i] = cellDone
	}
	t.mu.Unlock()
	t.running.Add(-1)
	if err != nil {
		t.failed.Add(1)
	} else {
		t.done.Add(1)
	}
}

// Finish marks the sweep over (cells never started stay pending).
func (t *SweepTracker) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ended = true
	t.mu.Unlock()
}

// sweepProgress is the /progress JSON shape for one sweep.
type sweepProgress struct {
	Name    string  `json:"name"`
	Total   int     `json:"total"`
	Running int     `json:"running"`
	Done    int     `json:"done"`
	Failed  int     `json:"failed"`
	Ended   bool    `json:"ended"`
	Cells   []cellP `json:"cells"`
}

type cellP struct {
	Cell  int     `json:"cell"`
	State string  `json:"state"`
	Secs  float64 `json:"seconds,omitempty"`
}

func (t *SweepTracker) snapshot() sweepProgress {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := sweepProgress{Name: t.name, Total: len(t.state), Ended: t.ended}
	for i, s := range t.state {
		c := cellP{Cell: i, State: s.String()}
		switch s {
		case cellRunning:
			p.Running++
			c.Secs = time.Since(t.start[i]).Seconds()
		case cellDone:
			p.Done++
			c.Secs = t.took[i].Seconds()
		case cellFailed:
			p.Failed++
			c.Secs = t.took[i].Seconds()
		}
		p.Cells = append(p.Cells, c)
	}
	return p
}

// Handler returns the monitor's HTTP mux: /healthz, /metrics, /progress.
func (m *Monitor) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		m.mu.Lock()
		n := len(m.sweeps)
		m.mu.Unlock()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "ok sweeps=%d uptime=%s\n", n, time.Since(m.started).Round(time.Second))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		m.col.WriteTo(w)
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, _ *http.Request) {
		m.mu.Lock()
		sweeps := append([]*SweepTracker(nil), m.sweeps...)
		m.mu.Unlock()
		out := struct {
			Sweeps []sweepProgress `json:"sweeps"`
		}{Sweeps: []sweepProgress{}}
		for _, t := range sweeps {
			out.Sweeps = append(out.Sweeps, t.snapshot())
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(out)
	})
	return mux
}

// Serve starts the telemetry endpoint on addr (e.g. "localhost:0") and
// returns the bound address plus a shutdown function. Serving runs on a
// background goroutine; sweeps do not block on slow scrapers.
func (m *Monitor) Serve(addr string) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: m.Handler()}
	go srv.Serve(ln)
	return ln.Addr().String(), func() error { return srv.Close() }, nil
}
