// Package serve turns the batch/offline energy-aware scheduling stack into
// a long-lived serving system: eschedd's decision engine.
//
// An Engine ingests read requests (HTTP handlers in this package, or any
// in-process caller), makes streaming replica-scheduling decisions with the
// paper's Eq. 6 online cost function C(d) = E(d)·α/β + P(d)·(1−α)
// (internal/sched) against live per-disk power state, and dispatches each
// request into the same disk/power/discrete-event machinery the batch
// runners use (storage.LiveSet over internal/diskmodel, internal/power,
// internal/simkernel). Replica lookup is a sharded lock-free Router over
// internal/placement; batched decision rounds can reuse the weighted-set-
// cover scheduler (internal/sched + internal/graph) instead of per-request
// cost minimization.
//
// The fleet is partitioned into Config.Shards decision shards, each owning
// a contiguous per-rack disk range, its own virtual-clock segment and its
// own serial kernel — the serving-path analogue of simkernel.Sharded.
// Admission is a per-shard lock-free MPSC ring; decisions are made by flat
// combining: the submitting goroutine that wins a shard's combining token
// drains the ring and decides the round inline, so the hot submit path has
// no cross-goroutine handoff and zero allocations. Observability streams
// from the shards are journaled and merged back into the canonical global
// order (storage.LiveSet), so a sharded run keeps every batch-path
// guarantee: the event log (internal/obs) is replayable with tracelens,
// the doctor monitors (internal/obs/monitor) can ride along live, and the
// Prometheus metrics reconcile bit-exactly to the power meters at drain —
// in Sequential mode the sharded output is byte-identical to a one-shard
// run. Admission is bounded (queue-full submissions fail fast for HTTP 429
// backpressure), each request carries a decision deadline, and Drain
// performs a graceful shutdown: in-flight requests complete, new ones are
// rejected, trailing spin-downs settle, and the final accounting is
// returned.
//
// See docs/SERVING.md for the architecture and the endpoint reference.
package serve

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
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
	// System is the simulated disk population (storage.Config); Shards must
	// be 0 or 1 (each serving shard runs its own serial kernel; use the
	// serve-level Shards field below to parallelize).
	System storage.Config
	// Router resolves blocks to replica locations.
	Router *Router
	// Shards partitions the fleet into per-rack decision shards, each with
	// its own combining loop, admission ring and virtual-clock segment.
	// 0 or 1 selects the single-shard engine. With more than one shard,
	// every block's replica set must live inside one shard's disk range
	// (placement.GenerateRackLocal with racks divisible by Shards), so a
	// decision never crosses shards.
	Shards int
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
	// accounting — at any shard count. Rounds are per-request and
	// wall-clock deadlines do not apply. When false (live mode), the engine
	// stamps IDs and arrivals from the wall clock in admission order.
	Sequential bool
	// Tracer, Collector and Monitor attach the observability stack exactly
	// as on a batch run (storage.WithTracer / WithCollector / WithMonitor).
	Tracer    *obs.Tracer
	Collector *obs.Collector
	Monitor   *monitor.Suite
	// StateLog streams disk power-state transitions as CSV
	// (storage.WithStateLog), in canonical global order at any shard count.
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

// ShardState is one decision shard's entry in a Snapshot: its disk range,
// clock segment and local counters.
type ShardState struct {
	Shard     int           `json:"shard"`
	BaseDisk  int           `json:"base_disk"`
	NumDisks  int           `json:"num_disks"`
	NowUS     int64         `json:"now_us"`
	Decisions uint64        `json:"decisions"`
	Rounds    uint64        `json:"rounds"`
	Served    int           `json:"served"`
	Dropped   int           `json:"dropped"`
	Now       time.Duration `json:"-"`
}

// Snapshot is a consistent view of the serving system: per-disk power
// state plus totals, taken with every shard quiescent.
type Snapshot struct {
	Totals Totals
	Disks  []storage.DiskSnapshot
	// Shards breaks the totals down per decision shard.
	Shards []ShardState
	// Slow holds the slow-request exemplars (slowest first), populated when
	// a collector is attached.
	Slow []SlowSpan
	// Kernel is the engine's kernel introspection snapshot, one
	// pseudo-shard per decision shard (events, queue/pool high-water
	// marks).
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
	// Per-shard decision/round counters (esched_serve_shard_*), index =
	// shard.
	shardDecisions, shardRounds []*obs.Counter
}

func newServeMetrics(c *obs.Collector, shards int) *serveMetrics {
	const outName = "esched_serve_requests_total"
	const outHelp = "Serving submissions by outcome."
	m := &serveMetrics{
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
	for i := 0; i < shards; i++ {
		lbl := obs.Label{Key: "shard", Value: strconv.Itoa(i)}
		m.shardDecisions = append(m.shardDecisions, c.Counter("esched_serve_shard_decisions_total",
			"Scheduling decisions per decision shard.", lbl))
		m.shardRounds = append(m.shardRounds, c.Counter("esched_serve_shard_rounds_total",
			"Decision rounds per decision shard.", lbl))
	}
	return m
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

// shard is one decision shard: a contiguous disk range with its own
// storage.Live facade (serial kernel + virtual-clock segment), admission
// ring, combining token and schedulers. All fields below the token are
// owned by whichever goroutine holds it.
type shard struct {
	idx         int
	base, count int
	ring        *ring
	lv          *storage.Live
	// tok is the flat-combining token: CAS 0→1 to own the shard.
	tok atomic.Uint32
	// pubClock is the shard's last published virtual clock (nanoseconds),
	// the watermark input for incremental journal merging; pubFired is the
	// kernel's executed-event count as of that publication. Both are
	// written under the token and read by the maintenance loop.
	pubClock atomic.Int64
	pubFired atomic.Uint64

	// Token-holder state.
	heur        sched.Heuristic
	wsc         sched.WSC
	scratch     sched.CoverScratch
	round       []*pending
	batch       []core.Request
	lastArrival time.Duration
	decisions   uint64
	rounds      uint64
}

// Engine is the serving decision engine. Create with New, feed with
// Submit from any number of goroutines, stop with Drain.
type Engine struct {
	cfg    Config
	ls     *storage.LiveSet
	shards []*shard
	sm     *serveMetrics
	pool   sync.Pool
	stop   chan struct{}
	ended  chan struct{}

	inflight  atomic.Int64
	draining  atomic.Bool
	decisions atomic.Uint64
	liveID    atomic.Uint64

	start time.Time // wall anchor for the virtual clock (live mode)

	// Sequential-mode sequencer: submissions park here until every lower ID
	// has arrived, then release — under seqMu, preserving per-ring ID
	// order — to their home shards with globally clamped arrivals.
	seqMu     sync.Mutex
	seqNext   core.RequestID
	seqLast   time.Duration
	seqParked map[core.RequestID]*pending
	seqMark   []bool // scratch: shards touched by one release run

	// mergeMu serializes journal merging (maintenance flushes, accounting
	// snapshots, flight sweeps) in multi-shard mode.
	mergeMu sync.Mutex

	// slowMu guards the slow-span exemplar ring.
	slowMu sync.Mutex
	slow   []SlowSpan // slowest spans seen, descending by TotalUS

	// kstats caches the merged kernel introspection snapshot for flight
	// dump telemetry (refreshed by maintenance and Snapshot).
	kstats atomic.Pointer[simkernel.KernelStats]

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
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Shards > cfg.System.NumDisks {
		return nil, fmt.Errorf("serve: %d shards exceed %d disks", cfg.Shards, cfg.System.NumDisks)
	}
	if cfg.Shards > 1 {
		if err := checkAlignment(cfg.Router, cfg.System.NumDisks, cfg.Shards); err != nil {
			return nil, err
		}
		cfg.Router.SetAlignment(cfg.Shards)
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
	ls, err := storage.NewLiveSet(cfg.System, cfg.Router.Lookup, cfg.Shards, cfg.Sequential, opts...)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:       cfg,
		ls:        ls,
		shards:    make([]*shard, ls.NumShards()),
		stop:      make(chan struct{}),
		ended:     make(chan struct{}),
		start:     time.Now(),
		seqParked: map[core.RequestID]*pending{},
		seqMark:   make([]bool, ls.NumShards()),
	}
	e.pool.New = func() any { return &pending{wake: make(chan struct{}, 1)} }
	for i := range e.shards {
		base, count := ls.ShardRange(i)
		s := &shard{idx: i, base: base, count: count, lv: ls.Shard(i), ring: newRing(cfg.MaxInFlight)}
		// The shard's scheduler traces into the shard relay (journaled and
		// renumbered at merge) — but only when the caller traces at all, so
		// an untraced run's decision stream stays absent exactly as on the
		// single-shard path.
		var tr *obs.Tracer
		if cfg.Tracer != nil {
			tr = s.lv.Tracer()
		}
		s.heur = sched.Heuristic{Locations: cfg.Router.Lookup, Cost: cfg.Cost, Tracer: tr}
		s.wsc = sched.WSC{Locations: cfg.Router.Lookup, Cost: cfg.Cost, Scratch: &s.scratch, Tracer: tr}
		e.shards[i] = s
	}
	if cfg.Collector != nil {
		e.sm = newServeMetrics(cfg.Collector, ls.NumShards())
	}
	if cfg.Flight != nil {
		// Dump telemetry rides the kernel's introspection counters. With one
		// shard the dump is written under that shard's token, which also owns
		// the counters; with several, the maintenance loop refreshes a cached
		// snapshot the dump reads instead.
		if len(e.shards) == 1 {
			lv := e.shards[0].lv
			cfg.Flight.SetTelemetry(func() any { return lv.KernelStats() })
		} else {
			cfg.Flight.SetTelemetry(func() any {
				if ks := e.kstats.Load(); ks != nil {
					return ks
				}
				return nil
			})
		}
	}
	if !cfg.Sequential {
		e.maintDone = make(chan struct{})
		go e.maintain()
	}
	return e, nil
}

// checkAlignment verifies that every block's replica set lives inside one
// shard's disk range, so no decision ever needs two shards' state.
func checkAlignment(r *Router, numDisks, shards int) error {
	for b := 0; b < r.NumBlocks(); b++ {
		locs := r.Lookup(core.BlockID(b))
		if len(locs) == 0 {
			continue
		}
		home := simkernel.ShardOf(locs[0], numDisks, shards)
		for _, d := range locs[1:] {
			if simkernel.ShardOf(d, numDisks, shards) != home {
				return fmt.Errorf("serve: block %d replicas %v straddle decision shards (want rack-local placement aligned to %d shards; see placement.GenerateRackLocal)",
					b, locs, shards)
			}
		}
	}
	return nil
}

// elapsed maps the wall clock onto the virtual clock (live mode).
func (e *Engine) elapsed() time.Duration { return time.Since(e.start) }

// homeShard returns the shard owning every replica of locs.
func (e *Engine) homeShard(locs []core.DiskID) *shard {
	if len(e.shards) == 1 {
		return e.shards[0]
	}
	return e.shards[simkernel.ShardOf(locs[0], e.cfg.System.NumDisks, len(e.shards))]
}

// Submit admits one read request and blocks until its decision (or
// rejection). In live mode req.ID and req.Arrival are ignored: the engine
// stamps both. In Sequential mode req.ID must be the dense replay ID and
// req.Arrival the virtual arrival time. deadline zero uses the engine
// default; a negative duration disables it for this request.
//
// The hot path allocates nothing: replica lookup is one atomic load, the
// admission bound one atomic add, the pending record comes from a pool,
// and the shard handoff is a lock-free ring push — after which the caller
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
			// led up to it. Cross-goroutine safe; the next merge or sweep
			// materialises the dump.
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
		s := e.homeShard(locs)
		s.ring.push(p)
		e.combineOn(s)
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
// submitted, then releases the maximal run of consecutive IDs to their
// home shards. Ring pushes happen under seqMu so each shard's ring
// receives its requests in global ID order; combining runs after the
// release, outside the lock, over the releaser's own list of touched
// shards: a list shared across releasers would be overwritten by the next
// one under the lock, stranding this run's requests in their rings.
func (e *Engine) submitSequential(p *pending) {
	e.seqMu.Lock()
	e.seqParked[p.req.ID] = p
	if p.req.ID != e.seqNext {
		e.seqMu.Unlock()
		return
	}
	var buf [8]*shard // on the stack; a run touching more shards spills
	touched := buf[:0]
	for {
		q, ok := e.seqParked[e.seqNext]
		if !ok {
			break
		}
		delete(e.seqParked, e.seqNext)
		e.seqNext++
		if q.req.Arrival < e.seqLast {
			q.req.Arrival = e.seqLast
		}
		e.seqLast = q.req.Arrival
		locs := e.cfg.Router.Lookup(q.req.Block)
		s := e.homeShard(locs)
		s.ring.push(q)
		if !e.seqMark[s.idx] {
			e.seqMark[s.idx] = true
			touched = append(touched, s)
		}
	}
	for _, s := range touched {
		e.seqMark[s.idx] = false
	}
	e.seqMu.Unlock()
	for _, s := range touched {
		e.combineOn(s)
	}
}

// combineOn runs the flat-combining protocol on s: win the token and
// decide rounds until the ring drains, or leave the work to the current
// holder — whose release-recheck (token release, then emptiness test)
// pairs with our pre-CAS ring push to guarantee the item is seen.
func (e *Engine) combineOn(s *shard) {
	for {
		if !s.tok.CompareAndSwap(0, 1) {
			// Someone holds the token. Our push happened before the failed
			// CAS, so the holder's post-release emptiness recheck sees it.
			return
		}
		e.combine(s)
		s.tok.Store(0)
		if s.ring.empty() {
			return
		}
		// New work arrived between the drain and the release (or a producer
		// is mid-publish); take the token back rather than strand it.
		runtime.Gosched()
	}
}

// combine drains s's ring in rounds of up to RoundMax. Caller holds the
// token.
func (e *Engine) combine(s *shard) {
	for {
		round := s.round[:0]
		for len(round) < e.cfg.RoundMax {
			p := s.ring.pop()
			if p == nil {
				break
			}
			round = append(round, p)
		}
		s.round = round
		if len(round) == 0 {
			return
		}
		s.rounds++
		if e.sm != nil {
			e.sm.rounds.Inc()
			e.sm.shardRounds[s.idx].Inc()
			e.sm.roundSize.Observe(float64(len(round)))
		}
		e.decideRound(s, round)
		if !e.cfg.Sequential && e.ls.Journaling() {
			// Republish the clock watermark so journal merging keeps pace
			// even when this shard is busy enough that the maintenance loop
			// never wins its token. Without a journal nothing consumes the
			// watermark, so the un-journaled hot path skips the stores.
			s.pubClock.Store(int64(s.lv.Now()))
			s.pubFired.Store(s.lv.Fired())
		}
	}
}

// decideRound decides one gathered round on s. Live mode stamps arrivals
// here (shard-monotone); sequential requests arrive pre-stamped in ID
// order and are decided one per-request round each, so round grouping can
// never affect results.
func (e *Engine) decideRound(s *shard, round []*pending) {
	if e.cfg.Sequential {
		for _, p := range round {
			arr := p.req.Arrival
			if arr < s.lastArrival {
				arr = s.lastArrival
			}
			s.lastArrival = arr
			p.req.Arrival = arr
			e.decideOne(s, p)
		}
		return
	}
	// One elapsed-clock read stamps the whole round (members share an
	// arrival instant, clamped shard-monotone), and the wall clock is read
	// lazily: only a request carrying a deadline, or the span metrics,
	// need it.
	elapsed := e.elapsed()
	var now time.Time
	if e.sm != nil {
		now = time.Now()
	}
	// Expire deadlines first: an expired request still arrives (it was
	// admitted) but is dropped instead of scheduled, keeping request
	// conservation intact in the event log.
	live := round[:0]
	for _, p := range round {
		arr := elapsed
		if arr < s.lastArrival {
			arr = s.lastArrival
		}
		s.lastArrival = arr
		p.req.Arrival = arr
		if !p.deadline.IsZero() {
			if now.IsZero() {
				now = time.Now()
			}
		}
		if !p.deadline.IsZero() && now.After(p.deadline) {
			s.lv.Advance(arr)
			s.lv.BeginRequest(arr, uint64(p.req.ID))
			s.lv.Arrive(p.req)
			s.lv.Drop(p.req)
			s.lv.EndRequest()
			e.count(func(m *serveMetrics) { m.deadline.Inc() })
			p.publish(Decision{}, ErrDeadline)
			continue
		}
		live = append(live, p)
	}
	if len(live) == 0 {
		return
	}
	if e.sm != nil {
		// The round timestamp closes every member's queue phase; per-request
		// decide timestamps are taken after each Schedule call below.
		for _, p := range live {
			p.roundAt = now
		}
	}
	if e.cfg.Mode == ModeWSC && len(live) > 1 {
		e.decideWSC(s, live)
		return
	}
	for _, p := range live {
		e.decideOne(s, p)
	}
}

// decideOne advances the shard clock to p's arrival, emits the arrival,
// schedules with the per-request heuristic and dispatches. The journal
// bracket keys everything the admission emits — arrive, decision,
// dispatch, any synchronous spin-up — to (arrival, request), the exact
// stream position a serial engine gives it.
func (e *Engine) decideOne(s *shard, p *pending) {
	arr := p.req.Arrival
	s.lv.Advance(arr)
	s.lv.BeginRequest(arr, uint64(p.req.ID))
	s.lv.Arrive(p.req)
	base := s.lv.DecisionBase()
	d := s.heur.Schedule(p.req, s.lv.View())
	if e.sm != nil {
		p.decidedAt = time.Now()
	}
	e.answer(s, p, d, func(r core.Request, d core.DiskID) {
		s.lv.Dispatch(r, d, base)
	})
	s.lv.EndRequest()
}

// decideWSC decides one live round as a weighted-set-cover instance:
// arrivals are emitted at their own timestamps, then the whole batch is
// assigned at the round's decision time, mirroring storage.RunBatch's tick
// shape. The dispatch block is journal-bracketed at the round's latest
// arrival under the last request's ID, keeping the shard journal sorted.
func (e *Engine) decideWSC(s *shard, live []*pending) {
	s.batch = s.batch[:0]
	var lastArr time.Duration
	var lastID uint64
	for _, p := range live {
		s.lv.Advance(p.req.Arrival)
		s.lv.BeginRequest(p.req.Arrival, uint64(p.req.ID))
		s.lv.Arrive(p.req)
		s.lv.EndRequest()
		s.batch = append(s.batch, p.req)
		lastArr, lastID = p.req.Arrival, uint64(p.req.ID)
	}
	s.lv.BeginRequest(lastArr, lastID)
	base := s.lv.DecisionBase()
	assignment := s.wsc.ScheduleBatch(s.batch, s.lv.View())
	if e.sm != nil {
		// One cover decides the whole batch; every member's decide phase
		// closes at the same instant.
		decided := time.Now()
		for _, p := range live {
			p.decidedAt = decided
		}
	}
	// A traced WSC emits one decision per placed request in batch order;
	// pair them back exactly as storage.RunBatch does (IDs base+1..base+n).
	placed := 0
	for _, d := range assignment {
		if d != core.InvalidDisk {
			placed++
		}
	}
	traced := placed > 0 && s.lv.DecisionBase() == base+uint64(placed)
	k := base
	for i, p := range live {
		var dec obs.DecisionID
		if traced && assignment[i] != core.InvalidDisk {
			k++
			dec = obs.DecisionID(k)
		}
		e.answer(s, p, assignment[i], func(r core.Request, d core.DiskID) {
			s.lv.DispatchDecision(r, d, dec)
		})
	}
	s.lv.EndRequest()
}

// answer dispatches the decision via dispatch and replies to the waiter.
func (e *Engine) answer(s *shard, p *pending, d core.DiskID, dispatch func(core.Request, core.DiskID)) {
	if d == core.InvalidDisk {
		// Replicas vanished between admission and decision (router update).
		s.lv.Drop(p.req)
		e.count(func(m *serveMetrics) { m.noReplica.Inc() })
		p.publish(Decision{}, fmt.Errorf("%w %d", ErrNoReplica, p.req.Block))
		return
	}
	v := s.lv.View()
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
		At:      s.lv.Now(),
	}
	dispatch(p.req, d)
	if err := s.lv.Err(); err != nil {
		p.publish(Decision{}, err)
		return
	}
	s.decisions++
	n := e.decisions.Add(1)
	if e.sm != nil {
		e.sm.decided.Inc()
		e.sm.shardDecisions[s.idx].Inc()
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

// maintain is the live-mode housekeeping loop: every tick it advances any
// idle shard's clock to wall time (firing completions, idle timeouts and
// spin-downs during quiet periods so /state stays live and disks spin
// down on schedule with no traffic), publishes per-shard clock watermarks,
// flushes the journal merge up to the fleet-wide minimum, and refreshes
// the cached kernel snapshot. Busy shards are skipped — their combiners
// advance their clocks with every round.
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
	stats := make([]simkernel.ShardStats, 0, len(e.shards))
	for _, s := range e.shards {
		if !s.tok.CompareAndSwap(0, 1) {
			// A combiner owns the shard; it republishes the watermark with
			// every round, so the merge below still advances.
			continue
		}
		s.lv.Advance(e.elapsed())
		s.pubClock.Store(int64(s.lv.Now()))
		s.pubFired.Store(s.lv.Fired())
		ss := s.lv.KernelStats().Shards[0]
		ss.Shard = s.idx
		stats = append(stats, ss)
		s.tok.Store(0)
		if !s.ring.empty() {
			e.combineOn(s)
		}
	}
	if len(stats) == len(e.shards) {
		merged := &simkernel.KernelStats{Shards: stats}
		for _, ss := range stats {
			merged.Events += ss.Events
		}
		e.kstats.Store(merged)
	}
	if e.ls.Journaling() {
		w := time.Duration(1<<63 - 1)
		var fired uint64
		for _, s := range e.shards {
			if c := time.Duration(s.pubClock.Load()); c < w {
				w = c
			}
			fired += s.pubFired.Load()
		}
		if w > 0 {
			e.mergeMu.Lock()
			e.ls.Flush(w)
			e.ls.SetGauges(w, fired)
			e.mergeMu.Unlock()
		}
	}
}

// FlushFlight materialises a pending flight-dump trigger. Triggers raised
// while the engine is idle (an operator SIGQUIT with no traffic) have no
// event flow to sweep them; this forces the sweep. No-op without a
// recorder or pending trigger.
func (e *Engine) FlushFlight() {
	if e.cfg.Flight == nil {
		return
	}
	select {
	case <-e.ended:
		return // drain already swept
	default:
	}
	if len(e.shards) == 1 {
		s := e.shards[0]
		if !e.acquire(s) {
			return
		}
		e.cfg.Flight.MaybeDump()
		s.tok.Store(0)
		if !s.ring.empty() {
			e.combineOn(s)
		}
		return
	}
	e.mergeMu.Lock()
	e.cfg.Flight.MaybeDump()
	e.mergeMu.Unlock()
}

// acquire spin-waits for s's token, giving up when the engine has ended
// (the drain holds every token forever).
func (e *Engine) acquire(s *shard) bool {
	for !s.tok.CompareAndSwap(0, 1) {
		select {
		case <-e.ended:
			return false
		default:
			runtime.Gosched()
		}
	}
	return true
}

// Snapshot returns a consistent view of the serving system, taken with
// every shard's token held. After Drain it returns the final snapshot.
func (e *Engine) Snapshot() Snapshot {
	held := 0
	for _, s := range e.shards {
		if !e.acquire(s) {
			break
		}
		held++
	}
	if held < len(e.shards) {
		// The engine ended mid-acquisition; back out and serve the final.
		for _, s := range e.shards[:held] {
			s.tok.Store(0)
		}
		<-e.ended
		if e.final != nil {
			return *e.final
		}
		return Snapshot{}
	}
	snap := e.snapshotHeld()
	for _, s := range e.shards {
		s.tok.Store(0)
	}
	for _, s := range e.shards {
		if !s.ring.empty() {
			e.combineOn(s)
		}
	}
	return snap
}

// snapshotHeld builds the snapshot; the caller holds every shard token.
func (e *Engine) snapshotHeld() Snapshot {
	var snap Snapshot
	var fired uint64
	kernel := &simkernel.KernelStats{Shards: make([]simkernel.ShardStats, len(e.shards))}
	for i, s := range e.shards {
		if !e.cfg.Sequential {
			s.lv.Advance(e.elapsed())
			s.pubClock.Store(int64(s.lv.Now()))
			s.pubFired.Store(s.lv.Fired())
		}
		disks := s.lv.Snapshot()
		snap.Disks = append(snap.Disks, disks...)
		now := s.lv.Now()
		snap.Shards = append(snap.Shards, ShardState{
			Shard: s.idx, BaseDisk: s.base, NumDisks: s.count,
			Now: now, NowUS: now.Microseconds(),
			Decisions: s.decisions, Rounds: s.rounds,
			Served: s.lv.Served(), Dropped: s.lv.Dropped(),
		})
		if now > snap.Totals.Now {
			snap.Totals.Now = now
		}
		snap.Totals.Served += s.lv.Served()
		snap.Totals.Dropped += s.lv.Dropped()
		for _, d := range disks {
			snap.Totals.EnergyJ += d.EnergyJ
			snap.Totals.SpinUps += d.SpinUps
			snap.Totals.SpinDowns += d.SpinDowns
		}
		ss := s.lv.KernelStats().Shards[0]
		ss.Shard = i
		kernel.Shards[i] = ss
		kernel.Events += ss.Events
		fired += s.lv.Fired()
	}
	snap.Totals.Decisions = e.decisions.Load()
	snap.Totals.InFlight = int(e.inflight.Load())
	snap.Totals.Draining = e.draining.Load()
	if acc := e.ls.Accounting(); acc != nil {
		// In journaling mode the accumulator is fed by the merge; exclude
		// the flusher while reading. (With every token held, no new records
		// are being appended either way.)
		e.mergeMu.Lock()
		snap.Totals.CarbonG, snap.Totals.CostUSD = acc.Snapshot()
		e.mergeMu.Unlock()
	}
	snap.Slow = e.slowSpans()
	snap.Kernel = kernel
	e.kstats.Store(kernel)
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
// admitted backlog, seize every shard, finish the storage set and publish
// the final snapshot.
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
		for _, s := range e.shards {
			e.combineOn(s)
		}
		e.rejectParked()
		if e.inflight.Load() == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// Seize the fleet: from here no other goroutine can touch a shard.
	for _, s := range e.shards {
		for !s.tok.CompareAndSwap(0, 1) {
			runtime.Gosched()
		}
	}
	name := "eschedd " + e.cfg.Mode.String()
	res, err := e.ls.Finish(name)
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
		if acc := e.ls.Accounting(); acc != nil {
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
		for _, s := range e.shards {
			snap.Shards = append(snap.Shards, ShardState{
				Shard: s.idx, BaseDisk: s.base, NumDisks: s.count,
				Now: res.Horizon, NowUS: res.Horizon.Microseconds(),
				Decisions: s.decisions, Rounds: s.rounds,
				Served: s.lv.Served(), Dropped: s.lv.Dropped(),
			})
		}
	}
	snap.Slow = e.slowSpans()
	snap.Kernel = e.ls.KernelStats()
	e.kstats.Store(snap.Kernel)
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
