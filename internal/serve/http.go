package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/simkernel"
	"repro/internal/storage"
)

// ScheduleRequest is the JSON body of POST /v1/schedule.
type ScheduleRequest struct {
	// Block is the block to read (required).
	Block int64 `json:"block"`
	// Size is the transfer size in bytes; 0 uses the workload default.
	// It may not exceed one disk's capacity.
	Size int64 `json:"size,omitempty"`
	// DeadlineMS bounds queueing before a decision in milliseconds;
	// 0 uses the daemon default, -1 disables the deadline.
	DeadlineMS int `json:"deadline_ms,omitempty"`
}

// ScheduleResponse is the JSON body of a successful scheduling decision.
type ScheduleResponse struct {
	Request uint64  `json:"request"`
	Block   int64   `json:"block"`
	Disk    int     `json:"disk"`
	State   string  `json:"state"`    // chosen disk's power state at decision time
	Load    int     `json:"load"`     // P(d): queued+in-service before this dispatch
	Cost    float64 `json:"cost"`     // Eq. 6 composite C(d)
	EnergyJ float64 `json:"energy_j"` // Eq. 5 energy term E(d)
	AtUS    int64   `json:"at_us"`    // virtual decision time, microseconds
}

// ErrorResponse is the JSON body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"` // queue_full | draining | deadline | no_replica | bad_request
}

// StateResponse is the JSON body of GET /state.
type StateResponse struct {
	NowUS     int64   `json:"now_us"`
	Decisions uint64  `json:"decisions"`
	Served    int     `json:"served"`
	Dropped   int     `json:"dropped"`
	InFlight  int     `json:"in_flight"`
	Draining  bool    `json:"draining"`
	EnergyJ   float64 `json:"energy_j"`
	SpinUps   int     `json:"spin_ups"`
	SpinDowns int     `json:"spin_downs"`
	// Carbon/cost accounting snapshot; omitted when the engine runs
	// without a grid profile attached.
	CarbonG float64     `json:"carbon_gco2e,omitempty"`
	CostUSD float64     `json:"cost_usd,omitempty"`
	Disks   []DiskState `json:"disks"`
	// Slow lists the slowest request lifecycle spans seen so far, worst
	// first (admit→queue→decide→dispatch→reply breakdown per entry);
	// empty when the engine runs without a metrics collector.
	Slow []SlowSpan `json:"slow_requests,omitempty"`
	// Kernel is the simulation kernel's introspection snapshot (event
	// counts, queue churn, pool high-water marks).
	Kernel *simkernel.KernelStats `json:"kernel,omitempty"`
}

// DiskState is one disk's entry in StateResponse.
type DiskState struct {
	Disk      int     `json:"disk"`
	State     string  `json:"state"`
	Load      int     `json:"load"`
	Served    int     `json:"served"`
	EnergyJ   float64 `json:"energy_j"`
	SpinUps   int     `json:"spin_ups"`
	SpinDowns int     `json:"spin_downs"`
}

// Server exposes an Engine over HTTP:
//
//	POST /v1/schedule        JSON ScheduleRequest → ScheduleResponse
//	POST /v1/schedule/batch  compact text: whitespace-separated block IDs →
//	                         one line per block, "disk at_us" or "! code"
//	GET  /healthz            liveness + decision counters
//	GET  /metrics            Prometheus text (reconciled at drain)
//	GET  /state              per-disk power-state snapshot (JSON)
//
// Backpressure and lifecycle map onto statuses: a full decision queue is
// 429 with Retry-After, a draining daemon is 503, an expired decision
// deadline is 504, a block with no replicas is 422, malformed input is 400.
type Server struct {
	eng *Engine
	col *obs.Collector
	// RetryAfter is the Retry-After hint on 429 responses (default 1s).
	RetryAfter time.Duration
}

// NewServer wraps an engine. col may be nil, disabling /metrics content
// (it serves an empty export).
func NewServer(eng *Engine, col *obs.Collector) *Server {
	return &Server{eng: eng, col: col, RetryAfter: time.Second}
}

// Handler returns the daemon's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/schedule", s.handleSchedule)
	mux.HandleFunc("/v1/schedule/batch", s.handleBatch)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/state", s.handleState)
	return mux
}

// Serve binds addr and serves in the background, returning the bound
// address (useful with ":0") and a shutdown func that stops the listener
// (it does not drain the engine; call Engine.Drain for that).
func (s *Server) Serve(addr string) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: s.Handler()}
	go srv.Serve(ln)
	return ln.Addr().String(), func() error { return srv.Close() }, nil
}

// errStatus maps an engine error to (HTTP status, machine-readable code).
func errStatus(err error) (int, string) {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests, "queue_full"
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, "draining"
	case errors.Is(err, ErrDeadline):
		return http.StatusGatewayTimeout, "deadline"
	case errors.Is(err, ErrNoReplica):
		return http.StatusUnprocessableEntity, "no_replica"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

func (s *Server) writeErr(w http.ResponseWriter, err error) {
	status, code := errStatus(err)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(int((s.RetryAfter+time.Second-1)/time.Second)))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorResponse{Error: err.Error(), Code: code})
}

func writeBadRequest(w http.ResponseWriter, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusBadRequest)
	json.NewEncoder(w).Encode(ErrorResponse{Error: msg, Code: "bad_request"})
}

// deadline converts the wire field to Engine.Submit's convention.
func deadline(ms int) time.Duration {
	switch {
	case ms < 0:
		return -1
	case ms == 0:
		return 0
	default:
		return time.Duration(ms) * time.Millisecond
	}
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req ScheduleRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeBadRequest(w, "bad JSON: "+err.Error())
		return
	}
	if req.Block < 0 {
		writeBadRequest(w, fmt.Sprintf("negative block %d", req.Block))
		return
	}
	// A transfer larger than one disk would overflow the disk model's
	// service time and fail the run long after this reply.
	mech := s.eng.cfg.System.Mech
	if capacity := mech.MaxLBA * mech.SectorSize; req.Size < 0 || req.Size > capacity {
		writeBadRequest(w, fmt.Sprintf("size %d outside [0, %d]", req.Size, capacity))
		return
	}
	d, err := s.eng.Submit(core.Request{Block: core.BlockID(req.Block), Size: req.Size}, deadline(req.DeadlineMS))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(decisionJSON(d))
}

func decisionJSON(d Decision) ScheduleResponse {
	return ScheduleResponse{
		Request: uint64(d.Req),
		Block:   int64(d.Block),
		Disk:    int(d.Disk),
		State:   d.State.String(),
		Load:    d.Load,
		Cost:    d.Cost,
		EnergyJ: d.EnergyJ,
		AtUS:    d.At.Microseconds(),
	}
}

// handleBatch is the compact endpoint: the body is whitespace-separated
// block IDs; the response has one line per block, in order — "disk at_us"
// on success or "! code" on rejection. The engine decides the batch in
// rounds of its own blocks (Config.RoundMax), so in ModeWSC one batch is
// one weighted-set cover per round.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 8<<20))
	if err != nil {
		writeBadRequest(w, err.Error())
		return
	}
	fields := strings.Fields(string(body))
	if len(fields) == 0 {
		writeBadRequest(w, "empty batch")
		return
	}
	reqs := make([]core.Request, len(fields))
	for i, f := range fields {
		b, err := strconv.ParseInt(f, 10, 64)
		if err != nil || b < 0 {
			writeBadRequest(w, "bad block "+f)
			return
		}
		reqs[i].Block = core.BlockID(b)
	}
	var sb strings.Builder
	for _, c := range s.eng.submitBatch(reqs) {
		if c.err != nil {
			_, code := errStatus(c.err)
			sb.WriteString("! " + code + "\n")
			continue
		}
		sb.WriteString(strconv.Itoa(int(c.dec.Disk)))
		sb.WriteByte(' ')
		sb.WriteString(strconv.FormatInt(c.dec.At.Microseconds(), 10))
		sb.WriteByte('\n')
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, sb.String())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.eng.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "draining decisions=%d\n", s.eng.Decisions())
		return
	}
	fmt.Fprintf(w, "ok decisions=%d\n", s.eng.Decisions())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if s.col == nil {
		return
	}
	// Refresh the esched_kernel_* families before rendering. The kernel
	// counters are owned by the engine lock, so they are read through
	// Snapshot and reconciled into the (mutex-protected) collector here on
	// the scrape goroutine.
	if ks := s.eng.Snapshot().Kernel; ks != nil {
		storage.ExportKernelMetrics(s.col, ks)
	}
	s.col.WriteTo(w)
}

func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	snap := s.eng.Snapshot()
	resp := StateResponse{
		NowUS:     snap.Totals.Now.Microseconds(),
		Decisions: snap.Totals.Decisions,
		Served:    snap.Totals.Served,
		Dropped:   snap.Totals.Dropped,
		InFlight:  snap.Totals.InFlight,
		Draining:  snap.Totals.Draining,
		EnergyJ:   snap.Totals.EnergyJ,
		SpinUps:   snap.Totals.SpinUps,
		SpinDowns: snap.Totals.SpinDowns,
		CarbonG:   snap.Totals.CarbonG,
		CostUSD:   snap.Totals.CostUSD,
		Disks:     make([]DiskState, len(snap.Disks)),
		Slow:      snap.Slow,
		Kernel:    snap.Kernel,
	}
	for i, d := range snap.Disks {
		resp.Disks[i] = DiskState{
			Disk:      int(d.Disk),
			State:     d.State.String(),
			Load:      d.Load,
			Served:    d.Served,
			EnergyJ:   d.EnergyJ,
			SpinUps:   d.SpinUps,
			SpinDowns: d.SpinDowns,
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}
