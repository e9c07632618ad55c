// Package serve turns the batch/offline energy-aware scheduling stack into
// a long-lived serving system: eschedd's decision engine.
//
// An Engine ingests read requests (HTTP handlers in this package, or any
// in-process caller), makes streaming replica-scheduling decisions with the
// paper's Eq. 6 online cost function C(d) = E(d)·α/β + P(d)·(1−α)
// (internal/sched) against live per-disk power state, and dispatches each
// request into the same disk/power/discrete-event machinery the batch
// runners use (one storage.Live over internal/diskmodel, internal/power,
// internal/simkernel). Replica lookup is a Router that reads
// internal/placement's immutable replica table in place; batched decision
// rounds can reuse the weighted-set-cover scheduler (internal/sched +
// internal/graph) instead of per-request cost minimization.
//
// Admission is one atomic bound; decisions are made under one engine
// mutex that owns the storage system, the schedulers and the virtual
// clock, so each Submit decides its own request on its own goroutine with
// no handoff and zero allocations, and a batch POST is decided in rounds
// of its own blocks. A serving run keeps every batch-path guarantee: the
// event log (internal/obs) is replayable with tracelens, the doctor
// monitors (internal/obs/monitor) can ride along live, and the Prometheus
// metrics reconcile bit-exactly to the power meters at drain. Admission
// is bounded (queue-full submissions fail fast for HTTP 429 backpressure),
// each request carries a decision deadline, and Drain performs a graceful
// shutdown: in-flight requests complete, new ones are rejected, trailing
// spin-downs settle, and the final accounting is returned.
//
// See docs/SERVING.md for the architecture and the endpoint reference.
package serve

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/account"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/monitor"
	"repro/internal/sched"
	"repro/internal/simkernel"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Serving-path errors, mapped to HTTP statuses by the Server (http.go).
var (
	// ErrQueueFull reports that the admission bound was hit: the caller
	// should back off and retry (HTTP 429 + Retry-After).
	ErrQueueFull = errors.New("serve: decision queue full")
	// ErrDraining reports that the engine is shutting down and rejects new
	// work (HTTP 503).
	ErrDraining = errors.New("serve: draining")
	// ErrDeadline reports that a request waited past its decision deadline
	// and was dropped (HTTP 504).
	ErrDeadline = errors.New("serve: decision deadline exceeded")
	// ErrNoReplica reports a block with no replica locations (HTTP 422).
	ErrNoReplica = errors.New("serve: no replica locations for block")
)

// Mode selects the decision path for a round.
type Mode int

const (
	// ModeHeuristic decides each request independently: the Eq. 6 argmin
	// over the block's replicas (sched.Heuristic).
	ModeHeuristic Mode = iota
	// ModeWSC decides each round as one weighted-set-cover instance over
	// the batched requests (sched.WSC), the paper's batch model applied to
	// serving rounds.
	ModeWSC
)

func (m Mode) String() string {
	if m == ModeWSC {
		return "wsc"
	}
	return "heuristic"
}

// Config parameterizes an Engine.
type Config struct {
	// System is the simulated disk population (storage.Config), run on
	// one serial kernel.
	System storage.Config
	// Router resolves blocks to replica locations.
	Router *Router
	// Cost is the Eq. 6 cost function; zero Alpha+Beta selects
	// sched.DefaultCost over System.Power.
	Cost sched.CostConfig
	// Mode selects per-request heuristic or per-round WSC decisions.
	Mode Mode
	// MaxInFlight bounds admitted-but-undecided requests; submissions over
	// the bound fail with ErrQueueFull. Default 4096.
	MaxInFlight int
	// RoundMax caps how many requests of one batch (POST
	// /v1/schedule/batch) one decision round takes. Default 512.
	RoundMax int
	// Deadline is the default wall-clock bound on queueing before a
	// decision; an expired request is dropped with ErrDeadline. 0 = none.
	Deadline time.Duration
	// Sequential switches the engine to deterministic replay order:
	// submitters supply dense request IDs and virtual arrival times, and
	// decisions are made in strict ID order regardless of submission
	// interleaving, so concurrent and serial clients produce bit-identical
	// accounting, equal to storage.RunOnline's over the same trace. Rounds
	// are per-request, so only ModeHeuristic is accepted, and wall-clock
	// deadlines do not apply. When false (live mode), the engine stamps IDs
	// and arrivals from the wall clock in decision order.
	Sequential bool
	// Tracer, Collector and Monitor attach the observability stack exactly
	// as on a batch run (storage.WithTracer / WithCollector / WithMonitor).
	Tracer    *obs.Tracer
	Collector *obs.Collector
	Monitor   *monitor.Suite
	// StateLog streams disk power-state transitions as CSV
	// (storage.WithStateLog).
	StateLog io.Writer
	// Accounting attaches carbon/cost attribution (storage.WithAccounting):
	// the accumulator sees the live event stream, surfaces running gCO2e/$
	// on /state, and is finalized and reconciled at Drain.
	Accounting *account.Accumulator
	// Flight attaches an always-on flight recorder (storage.WithFlight).
	// The engine arms its triggers: a doctor violation (via Monitor), the
	// first queue-full rejection, and the first decision span breaching
	// FlightSLO each freeze the recorder's window into a dump.
	Flight *flight.Recorder
	// FlightSLO is the wall-clock submit-to-reply bound whose first breach
	// triggers a flight dump (requires Flight and Collector; 0 disables).
	FlightSLO time.Duration
}

// Decision is the outcome of scheduling one request.
type Decision struct {
	Req     core.RequestID
	Block   core.BlockID
	Disk    core.DiskID
	State   core.DiskState // the chosen disk's power state at decision time
	Load    int            // queued+in-service on the chosen disk, pre-dispatch
	Cost    float64        // composite C(d) of Eq. 6
	EnergyJ float64        // energy term E(d) of Eq. 5
	At      time.Duration  // virtual decision time
}

// Totals is the running aggregate surfaced on /state and /healthz.
type Totals struct {
	Now       time.Duration
	Decisions uint64
	Served    int
	Dropped   int
	InFlight  int
	EnergyJ   float64
	SpinUps   int
	SpinDowns int
	Draining  bool
	// CarbonG and CostUSD are the accounting snapshot (zero without
	// Config.Accounting): settled gCO2e and energy dollars so far, exact
	// after Drain.
	CarbonG float64
	CostUSD float64
}

// Snapshot is a consistent view of the serving system: per-disk power
// state plus totals, taken under the engine lock.
type Snapshot struct {
	Totals Totals
	Disks  []storage.DiskSnapshot
	// Slow holds the slow-request exemplars (slowest first), populated when
	// a collector is attached.
	Slow []SlowSpan
	// Kernel is the engine's kernel introspection snapshot: one shard
	// (events, calendar-queue counters, queue/pool high-water marks).
	Kernel *simkernel.KernelStats
}

// serveMetrics is the engine's own metric catalog, alongside the
// simulator's RunMetrics on the shared collector.
type serveMetrics struct {
	decided, queueFull, deadline, draining, noReplica *obs.Counter
	inflight                                          *obs.Gauge
	rounds                                            *obs.Counter
	roundSize                                         *obs.Histogram
	decisionLatency                                   *obs.Histogram
	// Request lifecycle spans: per-phase wall-clock latency from admission
	// to the decision reply (queue: admitted, waiting for the engine lock
	// and, in Sequential mode, its turn; decide: scheduling; dispatch:
	// kernel advance + submit-to-disk + reply).
	spanQueue, spanDecide, spanDispatch *obs.Histogram
}

func newServeMetrics(c *obs.Collector) *serveMetrics {
	const outName = "esched_serve_requests_total"
	const outHelp = "Serving submissions by outcome."
	return &serveMetrics{
		decided:   c.Counter(outName, outHelp, obs.Label{Key: "outcome", Value: "decided"}),
		queueFull: c.Counter(outName, outHelp, obs.Label{Key: "outcome", Value: "queue_full"}),
		deadline:  c.Counter(outName, outHelp, obs.Label{Key: "outcome", Value: "deadline_expired"}),
		draining:  c.Counter(outName, outHelp, obs.Label{Key: "outcome", Value: "draining"}),
		noReplica: c.Counter(outName, outHelp, obs.Label{Key: "outcome", Value: "no_replica"}),
		inflight:  c.Gauge("esched_serve_inflight", "Admitted requests awaiting a decision."),
		rounds:    c.Counter("esched_serve_rounds_total", "Decision rounds executed."),
		roundSize: c.Histogram("esched_serve_round_size",
			"Requests decided per round.", []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}),
		decisionLatency: c.Histogram("esched_serve_decision_latency_seconds",
			"Wall-clock submit-to-decision latency.",
			[]float64{0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
				0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1}),
		spanQueue:    spanHistogram(c, "queue"),
		spanDecide:   spanHistogram(c, "decide"),
		spanDispatch: spanHistogram(c, "dispatch"),
	}
}

func spanHistogram(c *obs.Collector, phase string) *obs.Histogram {
	return c.Histogram("esched_span_phase_seconds",
		"Request lifecycle phase latency (admit->queue->decide->dispatch->reply).",
		[]float64{0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005, 0.001,
			0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1},
		obs.Label{Key: "phase", Value: phase})
}

// SlowSpan is one slow-request exemplar: the per-phase wall-clock breakdown
// of a request whose total span ranked among the slowest seen. Surfaced on
// /state and in the loadgen SLO report so a tail-latency spike carries its
// own diagnosis (which phase, which disk, which decision).
type SlowSpan struct {
	Req        core.RequestID `json:"req"`
	Block      core.BlockID   `json:"block"`
	Disk       core.DiskID    `json:"disk"`
	Decision   uint64         `json:"decision"`
	QueueUS    int64          `json:"queue_us"`
	DecideUS   int64          `json:"decide_us"`
	DispatchUS int64          `json:"dispatch_us"`
	TotalUS    int64          `json:"total_us"`
}

// slowSpanCap bounds the exemplar ring.
const slowSpanCap = 8

// call is one admitted request on its way through a decision round: the
// request, its deadline, its span timestamps and its outcome. Submit keeps
// its call on its own stack; a batch holds one per admitted block.
type call struct {
	req      core.Request
	deadline time.Time // zero = none
	enqueued time.Time
	// Span timestamps, populated only when metrics are attached: when the
	// request's round started (queue phase ends) and when its scheduling
	// decision was computed (decide phase ends).
	roundAt   time.Time
	decidedAt time.Time

	dec Decision
	err error
}

// Engine is the serving decision engine. Create with New, feed with
// Submit from any number of goroutines, stop with Drain.
type Engine struct {
	cfg   Config
	sm    *serveMetrics
	stop  chan struct{}
	ended chan struct{}

	inflight  atomic.Int64
	draining  atomic.Bool
	decisions atomic.Uint64

	start time.Time // wall anchor for the virtual clock (live mode)

	// mu owns every field below it: the storage system, its virtual
	// clock, the schedulers, the request-ID counter and the slow spans.
	mu sync.Mutex
	// turn is broadcast under mu when next advances or a drain begins:
	// Sequential submitters wait on it for their ID to come up.
	turn    sync.Cond
	lv      *storage.Live
	heur    sched.Heuristic
	wsc     sched.WSC
	scratch sched.CoverScratch
	batch   []core.Request
	members []int // round index of each batch entry (WSC)
	// next is the next request ID: stamped on live arrivals, awaited by
	// Sequential ones.
	next core.RequestID
	// lastArrival clamps arrivals monotone: the virtual clock never
	// rewinds, in either mode.
	lastArrival time.Duration
	slow        []SlowSpan // slowest spans seen, descending by TotalUS

	sloDumped atomic.Bool // the FlightSLO trigger fires once per run
	qfDumped  atomic.Bool // latches the queue-full flight trigger

	maintDone chan struct{} // maintenance goroutine exit (live mode)

	// Set under mu once Drain has completed.
	final    *Snapshot
	report   *storage.Result
	finalErr error
}

// New builds and starts a serving engine; it serves until Drain.
func New(cfg Config) (*Engine, error) {
	if cfg.Router == nil {
		return nil, errors.New("serve: nil Router")
	}
	if cfg.Router.NumDisks() != cfg.System.NumDisks {
		return nil, fmt.Errorf("serve: router over %d disks, system has %d",
			cfg.Router.NumDisks(), cfg.System.NumDisks)
	}
	if cfg.Sequential && cfg.Mode == ModeWSC {
		// Sequential rounds hold one request each, so a cover would decide
		// nothing a heuristic decision does not; serving WSC needs a
		// virtual-time batch window first.
		return nil, errors.New("serve: Sequential mode supports only ModeHeuristic")
	}
	if cfg.Cost.Beta == 0 && cfg.Cost.Alpha == 0 {
		cfg.Cost = sched.DefaultCost(cfg.System.Power)
	}
	if err := cfg.Cost.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 4096
	}
	if cfg.RoundMax <= 0 {
		cfg.RoundMax = 512
	}
	var opts []storage.RunOption
	if cfg.Tracer != nil {
		opts = append(opts, storage.WithTracer(cfg.Tracer))
	}
	if cfg.Collector != nil {
		opts = append(opts, storage.WithCollector(cfg.Collector))
	}
	if cfg.Monitor != nil {
		opts = append(opts, storage.WithMonitor(cfg.Monitor))
	}
	if cfg.StateLog != nil {
		opts = append(opts, storage.WithStateLog(cfg.StateLog))
	}
	if cfg.Accounting != nil {
		opts = append(opts, storage.WithAccounting(cfg.Accounting))
	}
	if cfg.Flight != nil {
		opts = append(opts, storage.WithFlight(cfg.Flight))
	}
	lv, err := storage.NewLive(cfg.System, cfg.Router.Lookup, opts...)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:   cfg,
		lv:    lv,
		stop:  make(chan struct{}),
		ended: make(chan struct{}),
		start: time.Now(),
	}
	e.turn.L = &e.mu
	e.heur = sched.Heuristic{Locations: cfg.Router.Lookup, Cost: cfg.Cost, Tracer: cfg.Tracer}
	e.wsc = sched.WSC{Locations: cfg.Router.Lookup, Cost: cfg.Cost, Scratch: &e.scratch, Tracer: cfg.Tracer}
	if cfg.Collector != nil {
		e.sm = newServeMetrics(cfg.Collector)
	}
	if cfg.Flight != nil {
		// Dump telemetry rides the kernel's introspection counters. A dump is
		// written under the engine lock, which also owns the counters.
		cfg.Flight.SetTelemetry(func() any { return lv.KernelStats() })
	}
	if !cfg.Sequential {
		e.maintDone = make(chan struct{})
		go e.maintain()
	}
	return e, nil
}

// elapsed maps the wall clock onto the virtual clock (live mode).
func (e *Engine) elapsed() time.Duration { return time.Since(e.start) }

// Submit admits one read request and blocks until its decision (or
// rejection). In live mode req.ID and req.Arrival are ignored: the engine
// stamps both. In Sequential mode req.ID must be the dense replay ID and
// req.Arrival the virtual arrival time. deadline zero uses the engine
// default; a negative duration disables it for this request.
//
// The hot path allocates nothing: replica lookup reads one row of the
// placement's table, admission is one compare-and-swap, and the caller
// decides its own request under the engine lock, as a round of one.
func (e *Engine) Submit(req core.Request, deadline time.Duration) (Decision, error) {
	if len(e.cfg.Router.Lookup(req.Block)) == 0 {
		return Decision{}, e.noReplica(req.Block)
	}
	if _, err := e.admit(1); err != nil {
		return Decision{}, err
	}
	var round [1]call
	c := &round[0]
	c.req = req
	c.enqueued, c.deadline = e.admitTime(deadline)
	e.mu.Lock()
	if e.cfg.Sequential {
		if !e.awaitTurn(req.ID) {
			e.mu.Unlock()
			e.release(1)
			e.count(func(m *serveMetrics) { m.draining.Inc() })
			return Decision{}, ErrDraining
		}
		e.next++
		e.decideRound(round[:], req.Arrival)
		e.turn.Broadcast()
	} else {
		e.stamp(c)
		e.decideRound(round[:], e.elapsed())
	}
	e.mu.Unlock()
	e.release(1)
	return c.dec, c.err
}

// submitBatch decides a batch in order, with the engine's default
// deadline (POST /v1/schedule/batch). Blocks without replicas are rejected
// first; the rest are admitted as far as the admission bound allows, so
// the ErrQueueFull rejections are always the batch's trailing blocks. The
// admitted blocks are decided in rounds of at most RoundMax, each under
// one hold of the engine lock with one shared arrival instant: one
// weighted-set cover per round in ModeWSC, the heuristic per request
// otherwise. Sequential requests carry their own IDs and arrivals, so
// they go through Submit one by one.
func (e *Engine) submitBatch(reqs []core.Request) []call {
	out := make([]call, len(reqs))
	if e.cfg.Sequential {
		for i, r := range reqs {
			out[i].dec, out[i].err = e.Submit(r, 0)
		}
		return out
	}
	adm := make([]int, 0, len(reqs)) // indices of the blocks with replicas
	for i, r := range reqs {
		if len(e.cfg.Router.Lookup(r.Block)) == 0 {
			out[i].err = e.noReplica(r.Block)
			continue
		}
		adm = append(adm, i)
	}
	if len(adm) == 0 {
		return out
	}
	k, err := e.admit(len(adm))
	if err == nil {
		err = ErrQueueFull
	}
	for _, i := range adm[k:] {
		out[i].err = err
	}
	adm = adm[:k]
	enqueued, expires := e.admitTime(0)
	round := make([]call, 0, min(k, e.cfg.RoundMax))
	for len(adm) > 0 {
		n := min(len(adm), e.cfg.RoundMax)
		round = round[:0]
		for _, i := range adm[:n] {
			round = append(round, call{req: reqs[i], enqueued: enqueued, deadline: expires})
		}
		e.mu.Lock()
		for j := range round {
			e.stamp(&round[j])
		}
		e.decideRound(round, e.elapsed())
		e.mu.Unlock()
		e.release(n)
		for j, i := range adm[:n] {
			out[i] = round[j]
		}
		adm = adm[n:]
	}
	return out
}

// admit reserves admission slots for up to n requests and returns how
// many it granted; the requests past the bound count as queue-full. It
// fails with ErrQueueFull when it grants none, and with ErrDraining, the
// slots handed back, when a drain has begun.
func (e *Engine) admit(n int) (int, error) {
	var k int64
	for {
		cur := e.inflight.Load()
		k = min(int64(n), int64(e.cfg.MaxInFlight)-cur)
		if k <= 0 || e.inflight.CompareAndSwap(cur, cur+k) {
			break
		}
	}
	k = max(k, 0)
	if full := int64(n) - k; full > 0 {
		e.count(func(m *serveMetrics) { m.queueFull.Add(float64(full)) })
		if e.cfg.Flight != nil && e.qfDumped.CompareAndSwap(false, true) {
			// A queue-full spike is a flight trigger: freeze the window that
			// led up to it. Cross-goroutine safe; the next observed event or
			// sweep materialises the dump.
			e.cfg.Flight.RequestDump("queue full")
		}
		if k == 0 {
			return 0, ErrQueueFull
		}
	}
	e.gaugeInflight()
	// One ordered drain check, after the reservation: a Drain that began
	// before it is seen here (rejected exactly once), and one that begins
	// after it sees the reservation and waits until it is handed back.
	if e.draining.Load() {
		e.release(int(k))
		e.count(func(m *serveMetrics) { m.draining.Add(float64(k)) })
		return 0, ErrDraining
	}
	return int(k), nil
}

// release hands back n admission slots.
func (e *Engine) release(n int) {
	e.inflight.Add(-int64(n))
	e.gaugeInflight()
}

// admitTime returns the wall time a request admitted now carries and its
// decision deadline (zero when none). The wall clock is read only when
// something consumes it: the span metrics (collector attached) or a live
// deadline. A bare engine submits without touching the clock at all.
func (e *Engine) admitTime(deadline time.Duration) (enqueued, expires time.Time) {
	if deadline == 0 {
		deadline = e.cfg.Deadline
	}
	live := deadline > 0 && !e.cfg.Sequential
	if e.sm == nil && !live {
		return
	}
	enqueued = time.Now()
	if live {
		expires = enqueued.Add(deadline)
	}
	return
}

// awaitTurn waits under mu until id is the next Sequential ID to decide.
// It returns false once a drain has begun: a request still waiting then
// has a predecessor that will never arrive.
func (e *Engine) awaitTurn(id core.RequestID) bool {
	for id != e.next {
		if e.draining.Load() {
			return false
		}
		e.turn.Wait()
	}
	return true
}

// stamp gives a live request the next ID and, when the client sent none,
// its block's LBA. Caller holds mu.
func (e *Engine) stamp(c *call) {
	c.req.ID = e.next
	e.next++
	if c.req.LBA == 0 {
		c.req.LBA = workload.BlockLBA(c.req.Block)
	}
}

// decideRound decides one round under mu. Every member arrives at arr,
// raised to the latest arrival decided so far (the virtual clock never
// rewinds). A member past its deadline still arrives (it was admitted)
// but is dropped instead of scheduled, keeping request conservation intact
// in the event log. The rest are decided by one cover in ModeWSC when
// more than one remains, and each by the heuristic otherwise.
func (e *Engine) decideRound(round []call, arr time.Duration) {
	if e.sm != nil {
		e.sm.rounds.Inc()
		e.sm.roundSize.Observe(float64(len(round)))
	}
	if arr < e.lastArrival {
		arr = e.lastArrival
	}
	e.lastArrival = arr
	// The wall clock is read lazily: only a member carrying a deadline, or
	// the span metrics, need it. The round timestamp closes every member's
	// queue phase.
	var now time.Time
	if e.sm != nil {
		now = time.Now()
	}
	left := 0
	for i := range round {
		c := &round[i]
		c.req.Arrival = arr
		if !c.deadline.IsZero() {
			if now.IsZero() {
				now = time.Now()
			}
			if now.After(c.deadline) {
				e.lv.Advance(arr)
				e.lv.Arrive(c.req)
				e.lv.Drop(c.req)
				e.count(func(m *serveMetrics) { m.deadline.Inc() })
				c.err = ErrDeadline
				continue
			}
		}
		c.roundAt = now
		left++
	}
	if e.cfg.Mode == ModeWSC && left > 1 {
		e.decideWSC(round)
		return
	}
	for i := range round {
		if c := &round[i]; c.err == nil {
			e.decideOne(c)
		}
	}
}

// decideOne advances the clock to c's arrival, emits the arrival and
// decides it with the per-request heuristic.
func (e *Engine) decideOne(c *call) {
	e.lv.Advance(c.req.Arrival)
	e.lv.Arrive(c.req)
	d, dec := e.lv.Decide(&e.heur, c.req)
	if e.sm != nil {
		c.decidedAt = time.Now()
	}
	e.answer(c, d, dec)
}

// decideWSC decides a round's unexpired members as one weighted-set-cover
// instance: arrivals are emitted first, then the whole batch is assigned
// at the round's decision time, as at a storage.RunBatch tick.
func (e *Engine) decideWSC(round []call) {
	e.batch, e.members = e.batch[:0], e.members[:0]
	for i := range round {
		c := &round[i]
		if c.err != nil {
			continue
		}
		e.lv.Advance(c.req.Arrival)
		e.lv.Arrive(c.req)
		e.batch = append(e.batch, c.req)
		e.members = append(e.members, i)
	}
	// One cover decides the whole batch; every member's decide phase
	// closes at the same instant.
	var decided time.Time
	answered := 0
	e.lv.DecideBatch(&e.wsc, e.batch, func(i int, d core.DiskID, dec obs.DecisionID) {
		if e.sm != nil && decided.IsZero() {
			decided = time.Now()
		}
		c := &round[e.members[i]]
		c.decidedAt = decided
		e.answer(c, d, dec)
		answered++
	})
	for _, i := range e.members[answered:] { // a failed cover poisoned the system
		round[i].err = e.lv.Err()
	}
}

// answer delivers one decision and records its outcome in c. The reply
// record reads the chosen disk before the request reaches it.
func (e *Engine) answer(c *call, d core.DiskID, dec obs.DecisionID) {
	if d == core.InvalidDisk {
		// No replica to decide on. Submit rejects blocks without replicas
		// and the placement never changes, so only a scheduler that
		// returns InvalidDisk lands here; the request is dropped, not run.
		e.lv.Deliver(c.req, d, dec)
		c.err = e.noReplica(c.req.Block)
		return
	}
	v := e.lv.View()
	en := e.cfg.Cost.EnergyCost(v, d)
	ld := v.Load(d)
	c.dec = Decision{
		Req:     c.req.ID,
		Block:   c.req.Block,
		Disk:    d,
		State:   v.DiskState(d),
		Load:    ld,
		Cost:    e.cfg.Cost.CostOf(en, ld),
		EnergyJ: en,
		At:      e.lv.Now(),
	}
	e.lv.Deliver(c.req, d, dec)
	if err := e.lv.Err(); err != nil {
		c.dec, c.err = Decision{}, err
		return
	}
	n := e.decisions.Add(1)
	if e.sm != nil {
		e.sm.decided.Inc()
		e.sm.decisionLatency.Observe(time.Since(c.enqueued).Seconds())
		e.recordSpan(c, n)
	}
}

// noReplica counts and returns the rejection of a block without replicas.
func (e *Engine) noReplica(b core.BlockID) error {
	e.count(func(m *serveMetrics) { m.noReplica.Inc() })
	return fmt.Errorf("%w %d", ErrNoReplica, b)
}

func (e *Engine) count(f func(*serveMetrics)) {
	if e.sm != nil {
		f(e.sm)
	}
}

func (e *Engine) gaugeInflight() {
	if e.sm != nil {
		e.sm.inflight.Set(float64(e.inflight.Load()))
	}
}

// Decisions returns the number of scheduling decisions made so far.
func (e *Engine) Decisions() uint64 { return e.decisions.Load() }

// Draining reports whether Drain has begun.
func (e *Engine) Draining() bool { return e.draining.Load() }

// recordSpan closes a decided request's lifecycle span: per-phase
// histograms, the slow-exemplar ring, and the FlightSLO trigger. Runs
// under mu with c.roundAt/c.decidedAt already stamped.
func (e *Engine) recordSpan(c *call, decision uint64) {
	done := time.Now()
	queue := c.roundAt.Sub(c.enqueued)
	decide := c.decidedAt.Sub(c.roundAt)
	dispatch := done.Sub(c.decidedAt)
	e.sm.spanQueue.Observe(queue.Seconds())
	e.sm.spanDecide.Observe(decide.Seconds())
	e.sm.spanDispatch.Observe(dispatch.Seconds())
	total := done.Sub(c.enqueued)
	if len(e.slow) < slowSpanCap || total.Microseconds() > e.slow[len(e.slow)-1].TotalUS {
		s := SlowSpan{
			Req: c.dec.Req, Block: c.dec.Block, Disk: c.dec.Disk, Decision: decision,
			QueueUS: queue.Microseconds(), DecideUS: decide.Microseconds(),
			DispatchUS: dispatch.Microseconds(), TotalUS: total.Microseconds(),
		}
		i := sort.Search(len(e.slow), func(i int) bool { return e.slow[i].TotalUS < s.TotalUS })
		if len(e.slow) < slowSpanCap {
			e.slow = append(e.slow, SlowSpan{})
		}
		copy(e.slow[i+1:], e.slow[i:])
		e.slow[i] = s
	}
	if e.cfg.Flight != nil && e.cfg.FlightSLO > 0 && total > e.cfg.FlightSLO &&
		e.sloDumped.CompareAndSwap(false, true) {
		e.cfg.Flight.RequestDump("slo breach")
	}
}

// slowSpans returns a copy of the slow-request exemplars, slowest first.
// Caller holds mu.
func (e *Engine) slowSpans() []SlowSpan {
	return append([]SlowSpan(nil), e.slow...)
}

// maintain is the live-mode housekeeping loop: every tick it advances an
// idle system's clock to wall time, firing completions, idle timeouts and
// spin-downs during quiet periods so /state stays live and disks spin down
// on schedule with no traffic. A busy engine is skipped: whoever holds
// the lock advances the clock with every decision.
func (e *Engine) maintain() {
	defer close(e.maintDone)
	t := time.NewTicker(25 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-t.C:
		}
		if e.mu.TryLock() {
			e.lv.Advance(e.elapsed())
			e.mu.Unlock()
		}
	}
}

// FlushFlight materialises a pending flight-dump trigger. Triggers raised
// while the engine is idle (an operator SIGQUIT with no traffic) have no
// event flow to sweep them; this forces the sweep. No-op without a
// recorder or pending trigger, and after Drain.
func (e *Engine) FlushFlight() {
	if e.cfg.Flight == nil {
		return
	}
	e.mu.Lock()
	if e.final == nil {
		e.cfg.Flight.MaybeDump()
	}
	e.mu.Unlock()
}

// Snapshot returns a consistent view of the serving system, taken under
// the engine lock. After Drain it returns the final snapshot.
func (e *Engine) Snapshot() Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.final != nil {
		return *e.final
	}
	if !e.cfg.Sequential {
		e.lv.Advance(e.elapsed())
	}
	snap := Snapshot{
		Totals: Totals{
			Now:       e.lv.Now(),
			Decisions: e.decisions.Load(),
			Served:    e.lv.Served(),
			Dropped:   e.lv.Dropped(),
			InFlight:  int(e.inflight.Load()),
			Draining:  e.draining.Load(),
		},
		Disks:  e.lv.Snapshot(),
		Slow:   e.slowSpans(),
		Kernel: e.lv.KernelStats(),
	}
	for _, d := range snap.Disks {
		snap.Totals.EnergyJ += d.EnergyJ
		snap.Totals.SpinUps += d.SpinUps
		snap.Totals.SpinDowns += d.SpinDowns
	}
	if acc := e.cfg.Accounting; acc != nil {
		snap.Totals.CarbonG, snap.Totals.CostUSD = acc.Snapshot()
	}
	return snap
}

// Drain gracefully shuts the engine down: new submissions are rejected,
// admitted ones are decided, outstanding disk work completes, trailing
// idle timeouts and spin-downs settle, and the exact final accounting is
// returned (metrics reconciled to the meters, event log flushed, monitor
// end-of-stream checks run). Drain is idempotent; concurrent callers get
// the same result. The winning caller's goroutine performs the drain.
func (e *Engine) Drain() (*storage.Result, error) {
	if e.draining.CompareAndSwap(false, true) {
		e.doDrain()
	}
	<-e.ended
	return e.report, e.finalErr
}

// doDrain runs on the first Drain caller: stop maintenance, wait until
// every admitted request is answered, then finish the storage system and
// publish the final snapshot under the lock.
func (e *Engine) doDrain() {
	defer close(e.ended)
	close(e.stop)
	if e.maintDone != nil {
		<-e.maintDone
	}
	// Wake the Sequential submitters: those still waiting for a
	// predecessor that will never arrive return ErrDraining, without
	// trace events (in virtual terms they never arrived).
	e.mu.Lock()
	e.turn.Broadcast()
	e.mu.Unlock()
	// Every submitter that reserved a slot before the draining flag
	// flipped is decided or rejects itself; poll until all are answered.
	for e.inflight.Load() != 0 {
		time.Sleep(time.Millisecond)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	name := "eschedd " + e.cfg.Mode.String()
	res, err := e.lv.Finish(name)
	e.report, e.finalErr = res, err
	if rec := e.cfg.Flight; rec != nil {
		// Flush a trigger raised after the last observed event (the drain
		// itself emits events, so this is usually a no-op).
		rec.MaybeDump()
		if err == nil && rec.Err() != nil {
			e.finalErr = rec.Err()
		}
	}
	snap := Snapshot{}
	if res != nil {
		t := Totals{
			Now:       res.Horizon,
			Decisions: e.decisions.Load(),
			Served:    res.Served,
			Dropped:   res.Dropped,
			Draining:  true,
			EnergyJ:   res.Energy,
			SpinUps:   res.SpinUps,
			SpinDowns: res.SpinDowns,
		}
		if acc := e.cfg.Accounting; acc != nil {
			t.CarbonG, t.CostUSD = acc.Snapshot()
		}
		snap.Totals = t
		for i, st := range res.PerDisk {
			snap.Disks = append(snap.Disks, storage.DiskSnapshot{
				Disk: core.DiskID(i), State: core.StateStandby, Load: 0,
				Served: st.Served, EnergyJ: st.Energy,
				SpinUps: st.SpinUps, SpinDowns: st.SpinDowns,
			})
		}
	}
	snap.Slow = e.slowSpans()
	snap.Kernel = e.lv.KernelStats()
	e.final = &snap
}
