// Package serve turns the batch/offline energy-aware scheduling stack into
// a long-lived serving system: eschedd's decision engine.
//
// An Engine ingests read requests (HTTP handlers in this package, or any
// in-process caller), makes streaming replica-scheduling decisions with the
// paper's Eq. 6 online cost function C(d) = E(d)·α/β + P(d)·(1−α)
// (internal/sched) against live per-disk power state, and dispatches each
// request into the same disk/power/discrete-event machinery the batch
// runners use (one storage.Live over internal/diskmodel, internal/power,
// internal/simkernel). Replica lookup is a striped lock-free Router over
// internal/placement; batched decision rounds can reuse the weighted-set-
// cover scheduler (internal/sched + internal/graph) instead of per-request
// cost minimization.
//
// Admission is a lock-free MPSC ring; decisions are made by flat
// combining: the submitting goroutine that wins the combining token drains
// the ring and decides the round inline, so the hot submit path has no
// cross-goroutine handoff and zero allocations. A serving run keeps every
// batch-path guarantee: the event log (internal/obs) is replayable with
// tracelens, the doctor monitors (internal/obs/monitor) can ride along
// live, and the Prometheus metrics reconcile bit-exactly to the power
// meters at drain. Admission is bounded (queue-full submissions fail fast
// for HTTP 429 backpressure), each request carries a decision deadline,
// and Drain performs a graceful shutdown: in-flight requests complete, new
// ones are rejected, trailing spin-downs settle, and the final accounting
// is returned.
//
// See docs/SERVING.md for the architecture and the endpoint reference.
package serve

import (
	"errors"
	"fmt"
	"io"
	"runtime"
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
	// RoundMax caps how many queued requests one decision round drains.
	// Default 512.
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
	// and arrivals from the wall clock in admission order.
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
// state plus totals, taken with the combining token held.
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
	// to the decision reply (queue: admitted, waiting for a round; decide:
	// scheduling; dispatch: kernel advance + submit-to-disk + reply).
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

// pending waiter states.
const (
	pWait   uint32 = iota // submitted, decision outstanding, waiter spinning
	pParked               // waiter gave up spinning and will block on wake
	pDone                 // decision published
)

// pending is one admitted request traveling from Submit to a decision
// round. Instances are pooled: the submit hot path performs no allocation
// in steady state. The decider publishes dec/err and flips state to pDone
// (waking a parked waiter); the submitter spins briefly, parks if needed,
// then reads the outcome and returns the record to the pool.
type pending struct {
	req      core.Request
	deadline time.Time // zero = none
	enqueued time.Time
	// Span timestamps, populated only when metrics are attached: when the
	// request's round started (queue phase ends) and when its scheduling
	// decision was computed (decide phase ends).
	roundAt   time.Time
	decidedAt time.Time

	dec   Decision
	err   error
	state atomic.Uint32
	wake  chan struct{} // cap 1, allocated once per pooled record
}

// publish hands the outcome to the waiter.
func (p *pending) publish(dec Decision, err error) {
	p.dec = dec
	p.finish(err)
}

// finish wakes the waiter with whatever p.dec already holds; the success
// path fills the decision in place and skips publish's extra copy.
func (p *pending) finish(err error) {
	p.err = err
	if p.state.Swap(pDone) == pParked {
		p.wake <- struct{}{}
	}
}

// await blocks until the outcome is published: a short spin (the common
// case — the submitter itself just combined its own request inline), then
// a parked channel wait.
func (p *pending) await() {
	for i := 0; i < 64; i++ {
		if p.state.Load() == pDone {
			return
		}
		if i >= 8 {
			runtime.Gosched()
		}
	}
	if p.state.CompareAndSwap(pWait, pParked) {
		<-p.wake
	}
}

// Engine is the serving decision engine. Create with New, feed with
// Submit from any number of goroutines, stop with Drain.
type Engine struct {
	cfg   Config
	ring  *ring
	sm    *serveMetrics
	pool  sync.Pool
	stop  chan struct{}
	ended chan struct{}

	inflight  atomic.Int64
	draining  atomic.Bool
	decisions atomic.Uint64
	liveID    atomic.Uint64

	start time.Time // wall anchor for the virtual clock (live mode)

	// tok is the flat-combining token: CAS 0→1 to own the fields below it
	// (the storage system, its virtual clock and the schedulers).
	tok     atomic.Uint32
	lv      *storage.Live
	heur    sched.Heuristic
	wsc     sched.WSC
	scratch sched.CoverScratch
	round   []*pending
	batch   []core.Request
	// lastArrival clamps arrivals monotone: the virtual clock never
	// rewinds, in either mode.
	lastArrival time.Duration

	// Sequential-mode sequencer: submissions park here until every lower ID
	// has arrived, then release — under seqMu, so the ring receives them in
	// ID order.
	seqMu     sync.Mutex
	seqNext   core.RequestID
	seqParked map[core.RequestID]*pending

	// slowMu guards the slow-span exemplar ring.
	slowMu sync.Mutex
	slow   []SlowSpan // slowest spans seen, descending by TotalUS

	sloDumped atomic.Bool // the FlightSLO trigger fires once per run
	qfDumped  atomic.Bool // latches the queue-full flight trigger

	maintDone chan struct{} // maintenance goroutine exit (live mode)

	// Set once Drain has completed.
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
		cfg:       cfg,
		lv:        lv,
		ring:      newRing(cfg.MaxInFlight),
		stop:      make(chan struct{}),
		ended:     make(chan struct{}),
		start:     time.Now(),
		seqParked: map[core.RequestID]*pending{},
	}
	e.pool.New = func() any { return &pending{wake: make(chan struct{}, 1)} }
	e.heur = sched.Heuristic{Locations: cfg.Router.Lookup, Cost: cfg.Cost, Tracer: cfg.Tracer}
	e.wsc = sched.WSC{Locations: cfg.Router.Lookup, Cost: cfg.Cost, Scratch: &e.scratch, Tracer: cfg.Tracer}
	if cfg.Collector != nil {
		e.sm = newServeMetrics(cfg.Collector)
	}
	if cfg.Flight != nil {
		// Dump telemetry rides the kernel's introspection counters. A dump is
		// written under the combining token, which also owns the counters.
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
// The hot path allocates nothing: replica lookup is one atomic load, the
// admission bound one atomic add, the pending record comes from a pool,
// and the handoff is a lock-free ring push — after which the caller
// either combines the round itself (inline decision) or spins/parks until
// the current combiner publishes its outcome.
func (e *Engine) Submit(req core.Request, deadline time.Duration) (Decision, error) {
	locs := e.cfg.Router.Lookup(req.Block)
	if len(locs) == 0 {
		e.count(func(m *serveMetrics) { m.noReplica.Inc() })
		return Decision{}, fmt.Errorf("%w %d", ErrNoReplica, req.Block)
	}
	if n := e.inflight.Add(1); n > int64(e.cfg.MaxInFlight) {
		e.inflight.Add(-1)
		e.count(func(m *serveMetrics) { m.queueFull.Inc() })
		if e.cfg.Flight != nil && e.qfDumped.CompareAndSwap(false, true) {
			// A queue-full spike is a flight trigger: freeze the window that
			// led up to it. Cross-goroutine safe; the next observed event or
			// sweep materialises the dump.
			e.cfg.Flight.RequestDump("queue full")
		}
		return Decision{}, ErrQueueFull
	}
	e.gaugeInflight()
	// One ordered drain check, after the inflight reservation: a Drain that
	// began before the reservation is seen here (rejected exactly once), and
	// one that begins after it sees our reservation and keeps polling until
	// we are answered.
	if e.draining.Load() {
		e.inflight.Add(-1)
		e.gaugeInflight()
		e.count(func(m *serveMetrics) { m.draining.Inc() })
		return Decision{}, ErrDraining
	}
	if deadline == 0 {
		deadline = e.cfg.Deadline
	}
	p := e.pool.Get().(*pending)
	p.req = req
	p.err = nil
	p.deadline = time.Time{}
	if e.sm != nil || (deadline > 0 && !e.cfg.Sequential) {
		// The wall clock is only read when something consumes it — the span
		// metrics (collector attached) or a deadline. A bare engine submits
		// without touching the clock at all.
		p.enqueued = time.Now()
		if deadline > 0 && !e.cfg.Sequential {
			p.deadline = p.enqueued.Add(deadline)
		}
	}
	if e.cfg.Sequential {
		e.submitSequential(p)
	} else {
		p.req.ID = core.RequestID(e.liveID.Add(1) - 1)
		if p.req.LBA == 0 {
			p.req.LBA = workload.BlockLBA(p.req.Block)
		}
		e.ring.push(p)
		e.combineOn()
	}
	p.await()
	dec, err := p.dec, p.err
	p.state.Store(pWait)
	e.pool.Put(p)
	e.inflight.Add(-1)
	e.gaugeInflight()
	return dec, err
}

// submitSequential parks p until every lower request ID has been
// submitted, then releases the maximal run of consecutive IDs to the ring.
// Ring pushes happen under seqMu so the ring receives requests in ID
// order; combining runs after the release, outside the lock.
func (e *Engine) submitSequential(p *pending) {
	e.seqMu.Lock()
	e.seqParked[p.req.ID] = p
	if p.req.ID != e.seqNext {
		e.seqMu.Unlock()
		return
	}
	for {
		q, ok := e.seqParked[e.seqNext]
		if !ok {
			break
		}
		delete(e.seqParked, e.seqNext)
		e.seqNext++
		e.ring.push(q)
	}
	e.seqMu.Unlock()
	e.combineOn()
}

// combineOn runs the flat-combining protocol: win the token and decide
// rounds until the ring drains, or leave the work to the current holder —
// whose release-recheck (token release, then emptiness test) pairs with
// our pre-CAS ring push to guarantee the item is seen.
func (e *Engine) combineOn() {
	for {
		if !e.tok.CompareAndSwap(0, 1) {
			// Someone holds the token. Our push happened before the failed
			// CAS, so the holder's post-release emptiness recheck sees it.
			return
		}
		e.combine()
		e.tok.Store(0)
		if e.ring.empty() {
			return
		}
		// New work arrived between the drain and the release (or a producer
		// is mid-publish); take the token back rather than strand it.
		runtime.Gosched()
	}
}

// combine drains the ring in rounds of up to RoundMax. Caller holds the
// token.
func (e *Engine) combine() {
	for {
		round := e.round[:0]
		for len(round) < e.cfg.RoundMax {
			p := e.ring.pop()
			if p == nil {
				break
			}
			round = append(round, p)
		}
		e.round = round
		if len(round) == 0 {
			return
		}
		if e.sm != nil {
			e.sm.rounds.Inc()
			e.sm.roundSize.Observe(float64(len(round)))
		}
		e.decideRound(round)
	}
}

// clamp returns arr raised to the latest arrival decided so far, and
// records it as the new latest.
func (e *Engine) clamp(arr time.Duration) time.Duration {
	if arr < e.lastArrival {
		arr = e.lastArrival
	}
	e.lastArrival = arr
	return arr
}

// decideRound decides one gathered round. Live mode stamps arrivals here;
// sequential requests arrive pre-stamped in ID order and are decided one
// by one with the heuristic (New rejects Sequential WSC), so round grouping
// can never affect results.
func (e *Engine) decideRound(round []*pending) {
	if e.cfg.Sequential {
		for _, p := range round {
			p.req.Arrival = e.clamp(p.req.Arrival)
			e.decideOne(p)
		}
		return
	}
	// One elapsed-clock read stamps the whole round (members share an
	// arrival instant), and the wall clock is read lazily: only a request
	// carrying a deadline, or the span metrics, need it.
	arr := e.clamp(e.elapsed())
	var now time.Time
	if e.sm != nil {
		now = time.Now()
	}
	// Expire deadlines first: an expired request still arrives (it was
	// admitted) but is dropped instead of scheduled, keeping request
	// conservation intact in the event log. The round timestamp closes
	// every member's queue phase (read only with span metrics on).
	live := round[:0]
	for _, p := range round {
		p.req.Arrival = arr
		if !p.deadline.IsZero() {
			if now.IsZero() {
				now = time.Now()
			}
			if now.After(p.deadline) {
				e.lv.Advance(arr)
				e.lv.Arrive(p.req)
				e.lv.Drop(p.req)
				e.count(func(m *serveMetrics) { m.deadline.Inc() })
				p.publish(Decision{}, ErrDeadline)
				continue
			}
		}
		p.roundAt = now
		live = append(live, p)
	}
	if len(live) == 0 {
		return
	}
	if e.cfg.Mode == ModeWSC && len(live) > 1 {
		e.decideWSC(live)
		return
	}
	for _, p := range live {
		e.decideOne(p)
	}
}

// decideOne advances the clock to p's arrival, emits the arrival and
// decides it with the per-request heuristic.
func (e *Engine) decideOne(p *pending) {
	e.lv.Advance(p.req.Arrival)
	e.lv.Arrive(p.req)
	d, dec := e.lv.Decide(&e.heur, p.req)
	if e.sm != nil {
		p.decidedAt = time.Now()
	}
	e.answer(p, d, dec)
}

// decideWSC decides one live round as a weighted-set-cover instance:
// arrivals are emitted at their own timestamps, then the whole batch is
// assigned at the round's decision time, as at a storage.RunBatch tick.
func (e *Engine) decideWSC(live []*pending) {
	e.batch = e.batch[:0]
	for _, p := range live {
		e.lv.Advance(p.req.Arrival)
		e.lv.Arrive(p.req)
		e.batch = append(e.batch, p.req)
	}
	// One cover decides the whole batch; every member's decide phase
	// closes at the same instant.
	var decided time.Time
	answered := 0
	e.lv.DecideBatch(&e.wsc, e.batch, func(i int, d core.DiskID, dec obs.DecisionID) {
		if e.sm != nil && decided.IsZero() {
			decided = time.Now()
		}
		live[i].decidedAt = decided
		e.answer(live[i], d, dec)
		answered++
	})
	for _, p := range live[answered:] { // a failed cover poisoned the system
		p.publish(Decision{}, e.lv.Err())
	}
}

// answer delivers one decision and replies to the waiter. The reply
// record reads the chosen disk before the request reaches it.
func (e *Engine) answer(p *pending, d core.DiskID, dec obs.DecisionID) {
	if d == core.InvalidDisk {
		// Replicas vanished between admission and decision (router update).
		e.lv.Deliver(p.req, d, dec)
		e.count(func(m *serveMetrics) { m.noReplica.Inc() })
		p.publish(Decision{}, fmt.Errorf("%w %d", ErrNoReplica, p.req.Block))
		return
	}
	v := e.lv.View()
	en := e.cfg.Cost.EnergyCost(v, d)
	ld := v.Load(d)
	p.dec = Decision{
		Req:     p.req.ID,
		Block:   p.req.Block,
		Disk:    d,
		State:   v.DiskState(d),
		Load:    ld,
		Cost:    e.cfg.Cost.CostOf(en, ld),
		EnergyJ: en,
		At:      e.lv.Now(),
	}
	e.lv.Deliver(p.req, d, dec)
	if err := e.lv.Err(); err != nil {
		p.publish(Decision{}, err)
		return
	}
	n := e.decisions.Add(1)
	if e.sm != nil {
		e.sm.decided.Inc()
		e.sm.decisionLatency.Observe(time.Since(p.enqueued).Seconds())
		e.recordSpan(p, p.dec, n)
	}
	p.finish(nil)
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
// histograms, the slow-exemplar ring, and the FlightSLO trigger. Runs on
// the combining goroutine with p.roundAt/p.decidedAt already stamped.
func (e *Engine) recordSpan(p *pending, dec Decision, decision uint64) {
	done := time.Now()
	queue := p.roundAt.Sub(p.enqueued)
	decide := p.decidedAt.Sub(p.roundAt)
	dispatch := done.Sub(p.decidedAt)
	e.sm.spanQueue.Observe(queue.Seconds())
	e.sm.spanDecide.Observe(decide.Seconds())
	e.sm.spanDispatch.Observe(dispatch.Seconds())
	total := done.Sub(p.enqueued)
	e.slowMu.Lock()
	if len(e.slow) == slowSpanCap && total.Microseconds() <= e.slow[len(e.slow)-1].TotalUS {
		// Fast path: not among the slowest seen.
	} else {
		s := SlowSpan{
			Req: dec.Req, Block: dec.Block, Disk: dec.Disk, Decision: decision,
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
	e.slowMu.Unlock()
	if e.cfg.Flight != nil && e.cfg.FlightSLO > 0 && total > e.cfg.FlightSLO &&
		e.sloDumped.CompareAndSwap(false, true) {
		e.cfg.Flight.RequestDump("slo breach")
	}
}

// slowSpans returns a copy of the slow-request exemplars, slowest first.
func (e *Engine) slowSpans() []SlowSpan {
	e.slowMu.Lock()
	out := make([]SlowSpan, len(e.slow))
	copy(out, e.slow)
	e.slowMu.Unlock()
	return out
}

// maintain is the live-mode housekeeping loop: every tick it advances an
// idle system's clock to wall time, firing completions, idle timeouts and
// spin-downs during quiet periods so /state stays live and disks spin down
// on schedule with no traffic. A busy system is skipped — its combiner
// advances the clock with every round.
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
		e.tick()
	}
}

// tick runs one maintenance pass.
func (e *Engine) tick() {
	if !e.tok.CompareAndSwap(0, 1) {
		return
	}
	e.lv.Advance(e.elapsed())
	e.release()
}

// release hands the combining token back and decides anything that
// arrived while it was held for housekeeping.
func (e *Engine) release() {
	e.tok.Store(0)
	if !e.ring.empty() {
		e.combineOn()
	}
}

// FlushFlight materialises a pending flight-dump trigger. Triggers raised
// while the engine is idle (an operator SIGQUIT with no traffic) have no
// event flow to sweep them; this forces the sweep. No-op without a
// recorder or pending trigger.
func (e *Engine) FlushFlight() {
	if e.cfg.Flight == nil || !e.acquire() {
		return
	}
	e.cfg.Flight.MaybeDump()
	e.release()
}

// acquire spin-waits for the combining token, giving up when the engine
// has ended (the drain holds the token forever).
func (e *Engine) acquire() bool {
	for !e.tok.CompareAndSwap(0, 1) {
		select {
		case <-e.ended:
			return false
		default:
			runtime.Gosched()
		}
	}
	return true
}

// Snapshot returns a consistent view of the serving system, taken with the
// combining token held. After Drain it returns the final snapshot.
func (e *Engine) Snapshot() Snapshot {
	if !e.acquire() {
		<-e.ended
		if e.final != nil {
			return *e.final
		}
		return Snapshot{}
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
	e.release()
	snap.Slow = e.slowSpans()
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

// doDrain runs on the first Drain caller: stop maintenance, answer the
// admitted backlog, seize the token, finish the storage system and
// publish the final snapshot.
func (e *Engine) doDrain() {
	defer close(e.ended)
	close(e.stop)
	if e.maintDone != nil {
		<-e.maintDone
	}
	// Answer the backlog. Every submitter that reserved inflight before the
	// draining flag flipped either gets decided (its request reached a ring)
	// or rejects itself on the post-reservation drain check; parked
	// sequential requests are rejected (their predecessors will never
	// arrive). Poll until the count settles.
	for {
		e.combineOn()
		e.rejectParked()
		if e.inflight.Load() == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// Seize the token: from here no other goroutine can touch the system.
	for !e.tok.CompareAndSwap(0, 1) {
		runtime.Gosched()
	}
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

// rejectParked rejects every sequencer resident during drain. The
// requests were admitted but never arrived in virtual terms (their turn
// never came), so they are rejected without trace events.
func (e *Engine) rejectParked() {
	e.seqMu.Lock()
	if len(e.seqParked) == 0 {
		e.seqMu.Unlock()
		return
	}
	ids := make([]core.RequestID, 0, len(e.seqParked))
	for id := range e.seqParked {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	parked := make([]*pending, len(ids))
	for i, id := range ids {
		parked[i] = e.seqParked[id]
		delete(e.seqParked, id)
	}
	e.seqMu.Unlock()
	for _, p := range parked {
		e.count(func(m *serveMetrics) { m.draining.Inc() })
		p.publish(Decision{}, ErrDraining)
	}
}
