// Package storage assembles the full simulated storage system of Figure 1:
// a scheduler (online or batch), a population of disks with their power
// manager, and the data-placement lookup. It drives a request stream
// through the system on the discrete-event kernel and reports the paper's
// evaluation metrics: energy, spin-up/down operations, response times and
// per-disk state breakdowns.
package storage

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/account"
	"repro/internal/core"
	"repro/internal/diskmodel"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/monitor"
	"repro/internal/offline"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/simkernel"
)

// Config describes the simulated system.
type Config struct {
	NumDisks int
	Power    power.Config
	Mech     diskmodel.MechConfig
	// Policy defaults to 2CPM over Power when nil.
	Policy power.Policy
	// InitialState defaults to standby (the paper's assumption); always-on
	// baselines pass core.StateIdle.
	InitialState core.DiskState
	// Discipline selects each disk's queue service order (default FIFO).
	Discipline diskmodel.Discipline
	// Shards is ignored: every ordered run executes on one
	// simkernel.Engine.
	//
	// Deprecated: kept only so existing callers compile; it has no effect.
	Shards int
}

// DefaultConfig returns the paper's evaluation system: 180 disks, Cheetah
// mechanics, Barracuda-class power, 2CPM (Section 4).
func DefaultConfig() Config {
	p := power.DefaultConfig()
	return Config{
		NumDisks: 180,
		Power:    p,
		Mech:     diskmodel.Cheetah15K5(),
		Policy:   power.TwoCompetitive{Config: p},
	}
}

func (c Config) validate() error {
	if c.NumDisks <= 0 {
		return fmt.Errorf("storage: NumDisks = %d", c.NumDisks)
	}
	if err := c.Power.Validate(); err != nil {
		return err
	}
	return c.Mech.Validate()
}

// Result aggregates one simulation run.
type Result struct {
	Scheduler string
	// Energy is the total energy of all disks over the horizon, in joules.
	Energy float64
	// AlwaysOnEnergy is the normalization baseline: every disk idling over
	// the same horizon (the paper's Figures 6, 10, 14 denominators).
	AlwaysOnEnergy float64
	SpinUps        int
	SpinDowns      int
	Served         int
	// Dropped counts requests that could not be served: blocks with no
	// replica locations plus blocks whose every replica was failed.
	Dropped int
	// Unavailable is the subset of Dropped caused by failures.
	Unavailable int
	// Redispatched counts requests drained from failing disks and resent.
	Redispatched int
	// CacheHits counts reads absorbed by the block cache (a subset of
	// Served).
	CacheHits int
	Horizon   time.Duration
	Response  metrics.ResponseTimes
	PerDisk   []diskmodel.Stats
	// EnergyByState breaks Energy down by power state: the sum over PerDisk
	// of Stats.EnergyIn, accumulated in disk order so exporters reconciled
	// from it match report aggregates exactly.
	EnergyByState [core.StateSpinDown + 1]float64
}

// NormalizedEnergy returns Energy / AlwaysOnEnergy (Figure 6's y-axis).
func (r *Result) NormalizedEnergy() float64 { return r.Energy / r.AlwaysOnEnergy }

// system wires an engine, disks, the placement lookup and metrics
// together and implements sched.View.
type system struct {
	cfg   Config
	loc   sched.Locator
	eng   simkernel.Engine
	disks []*diskmodel.Disk
	resp  metrics.ResponseTimes
	// Run-level sinks, closed when the run ends.
	tr           *obs.Tracer
	rm           *obs.RunMetrics
	mon          *monitor.Suite
	acct         *account.Accumulator
	err          error
	served       int
	dropped      int
	unavailable  int
	redispatched int
	cacheHits    int
}

var _ sched.View = (*system)(nil)

func newSystem(cfg Config, loc sched.Locator, o runOptions) (*system, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	policy := cfg.Policy
	if policy == nil {
		policy = power.TwoCompetitive{Config: cfg.Power}
	}
	s := &system{cfg: cfg, loc: loc, disks: make([]*diskmodel.Disk, cfg.NumDisks),
		tr: o.tracer, mon: o.monitor, acct: o.acct}
	if o.collector != nil {
		s.rm = obs.NewRunMetrics(o.collector)
		rm := s.rm
		s.eng.SetProbe(func(now time.Duration, fired uint64) {
			rm.SimTime.Set(now.Seconds())
			rm.EventsFired.Set(float64(fired))
		})
	}
	var onTrans func(core.DiskID, time.Duration, core.DiskState, core.DiskState, obs.EnergyDelta)
	if o.stateLog != nil || s.rm != nil {
		onTrans = func(d core.DiskID, now time.Duration, from, to core.DiskState, e obs.EnergyDelta) {
			if o.stateLog != nil {
				fmt.Fprintf(o.stateLog, "%.6f,%d,%s,%s\n", now.Seconds(), d, from, to)
			}
			if s.rm != nil {
				s.rm.Transition(from, to, e)
			}
		}
	}
	onDone := func(req core.Request, done time.Duration) {
		lat := done - req.Arrival
		s.resp.Add(lat)
		s.served++
		if s.rm != nil {
			s.rm.ObserveResponse(lat)
			s.rm.Served.Inc()
		}
	}
	for i := range s.disks {
		d, err := diskmodel.New(core.DiskID(i), cfg.Mech, cfg.Power, policy, &s.eng, onDone,
			diskmodel.Options{
				InitialState: cfg.InitialState,
				Discipline:   cfg.Discipline,
				OnTransition: onTrans,
				Tracer:       o.tracer,
			})
		if err != nil {
			return nil, err
		}
		s.disks[i] = d
	}
	return s, nil
}

// Now implements sched.View.
func (s *system) Now() time.Duration { return s.eng.Now() }

// DiskState implements sched.View.
func (s *system) DiskState(d core.DiskID) core.DiskState { return s.disks[d].State() }

// Load implements sched.View.
func (s *system) Load(d core.DiskID) int { return s.disks[d].Load() }

// LastRequestTime implements sched.View.
func (s *system) LastRequestTime(d core.DiskID) (time.Duration, bool) {
	return s.disks[d].LastRequestTime()
}

// fail records the first simulation error and halts the run.
func (s *system) fail(err error) {
	if s.err == nil {
		s.err = err
		s.eng.Halt()
	}
}

// drop records a request that could not be served.
func (s *system) drop(req core.Request) {
	s.dropped++
	s.tr.Drop(s.eng.Now(), req.ID, req.Block)
	if s.rm != nil {
		s.rm.Dropped.Inc()
	}
}

// submit hands the request to its chosen disk, emitting the dispatch event
// and the queue-depth observation. dec is the scheduler decision being
// executed (0 when the scheduler is untraced), threaded down so any
// spin-up the arrival triggers is attributed to it in the log.
func (s *system) submit(req core.Request, d core.DiskID, dec obs.DecisionID) {
	s.tr.Dispatch(s.eng.Now(), req.ID, req.Block, d, dec)
	disk := s.disks[d]
	disk.SubmitCaused(req, dec)
	if s.rm != nil {
		s.rm.QueueDepth.Observe(float64(disk.Load()))
	}
}

// deliver executes a scheduling decision. InvalidDisk drops the request,
// and a disk that does not hold the block fails the run. A chosen disk
// that is down (only with failures armed) fails over to a surviving
// replica, preferring a spinning one; a request whose every replica is
// down is dropped as unavailable.
func (s *system) deliver(req core.Request, d core.DiskID, dec obs.DecisionID) {
	if d == core.InvalidDisk {
		s.drop(req)
		return
	}
	if d < 0 || int(d) >= len(s.disks) {
		s.fail(fmt.Errorf("storage: scheduler chose nonexistent disk %d for %v", d, req))
		return
	}
	if !s.disks[d].Failed() {
		if !slices.Contains(s.loc(req.Block), d) {
			s.fail(fmt.Errorf("storage: scheduler chose off-replica disk %d for %v", d, req))
			return
		}
		s.submit(req, d, dec)
		return
	}
	fallback := core.InvalidDisk
	for _, alt := range s.loc(req.Block) {
		if s.disks[alt].Failed() {
			continue
		}
		if fallback == core.InvalidDisk {
			fallback = alt
		}
		if s.disks[alt].State().Spinning() {
			fallback = alt
			break
		}
	}
	if fallback == core.InvalidDisk {
		s.drop(req)
		s.unavailable++
		return
	}
	s.submit(req, fallback, dec)
}

// decide is the online decision step (Section 2.2): the scheduler assigns
// r at the current virtual time. It returns the chosen disk and the ID of
// the decision a traced scheduler emitted for it: the tracer's decision
// counter was base before the Schedule call, so if it advanced, the
// (single-threaded) run's newest decision is this one. Untraced schedulers
// leave the counter unchanged and the decision ID is 0.
func (s *system) decide(sc sched.Online, r core.Request) (core.DiskID, obs.DecisionID) {
	base := s.tr.DecisionCount()
	d := sc.Schedule(r, s)
	if s.rm != nil {
		s.rm.Decisions.Inc()
	}
	if n := s.tr.DecisionCount(); n > base {
		return d, obs.DecisionID(n)
	}
	return d, 0
}

// decideBatch is the batch decision step (Section 2.2): the scheduler
// assigns the whole batch at once, then each(i, d, dec) runs for every
// request in batch order with its disk and decision ID. A traced batch
// scheduler emits one decision per placed request, in batch order
// (sched.traceBatchDecisions); when the counter advanced by exactly that
// many, the placed requests are paired with IDs base+1, base+2, ... in
// order. An assignment of the wrong length fails the run and calls each
// for no request.
func (s *system) decideBatch(sc sched.Batch, batch []core.Request, each func(i int, d core.DiskID, dec obs.DecisionID)) {
	base := s.tr.DecisionCount()
	assignment := sc.ScheduleBatch(batch, s)
	if len(assignment) != len(batch) {
		s.fail(fmt.Errorf("storage: batch scheduler returned %d assignments for %d requests",
			len(assignment), len(batch)))
		return
	}
	if s.rm != nil {
		s.rm.Decisions.Add(float64(len(batch)))
	}
	placed := 0
	for _, d := range assignment {
		if d != core.InvalidDisk {
			placed++
		}
	}
	traced := placed > 0 && s.tr.DecisionCount() == base+uint64(placed)
	k := base
	for i, d := range assignment {
		var dec obs.DecisionID
		if traced && d != core.InvalidDisk {
			k++
			dec = obs.DecisionID(k)
		}
		each(i, d, dec)
	}
}

// finish drains the engine up to the accounting horizon (not beyond it for
// administrative events such as distant repairs), keeps stepping while
// disks still hold work, and collects results. ingested is the number of
// requests that arrived.
func (s *system) finish(name string, horizon time.Duration, ingested int) (*Result, error) {
	end := s.eng.RunUntil(horizon)
	if s.err != nil {
		return nil, s.err
	}
	// Late completions: keep stepping while disks still hold work (long
	// queues can outlive the nominal horizon), then let the trailing idle
	// timeouts and spin-downs settle.
	stepped := false
	for s.err == nil {
		outstanding := 0
		for _, d := range s.disks {
			outstanding += d.Load()
		}
		if outstanding == 0 {
			break
		}
		if !s.eng.Step() {
			break
		}
		stepped = true
	}
	if s.err != nil {
		return nil, s.err
	}
	if stepped && s.eng.Now() > end {
		end = s.eng.RunUntil(s.eng.Now() + settleTail(s.cfg.Power))
	}
	res := &Result{
		Scheduler:    name,
		Served:       s.served,
		Dropped:      s.dropped,
		Unavailable:  s.unavailable,
		Redispatched: s.redispatched,
		CacheHits:    s.cacheHits,
		Horizon:      end,
		Response:     s.resp,
		PerDisk:      s.closeDisks(),
	}
	return s.closeRun(res, ingested)
}

// settleTail is how far a run's clock advances past its last completion so
// the trailing idle timeouts and spin-downs settle inside the horizon.
func settleTail(p power.Config) time.Duration {
	return p.Breakeven() + p.SpinDownTime + time.Second
}

// closeDisks closes every disk in disk order, emitting their end-of-run
// accounting events, and returns their final stats. No further simulation
// may run after this.
func (s *system) closeDisks() []diskmodel.Stats {
	out := make([]diskmodel.Stats, len(s.disks))
	for i, d := range s.disks {
		out[i] = d.Close()
	}
	return out
}

// closeRun is the end-of-run sequence every runner shares. The caller has
// closed the disks into res.PerDisk (disk order) and filled in the request
// counters and the horizon. closeRun sums the disks in that order, so float
// totals match bit for bit across runners, computes the always-on
// baseline, emits the run-end marker, closes the carbon/cost accounting,
// runs the doctor's end-of-stream checks, reconciles the metrics export to
// the exact totals, flushes the event sink, and checks that every one of
// the ingested requests was served or dropped.
func (s *system) closeRun(res *Result, ingested int) (*Result, error) {
	fired := s.eng.Fired()
	for _, st := range res.PerDisk {
		res.Energy += st.Energy
		res.SpinUps += st.SpinUps
		res.SpinDowns += st.SpinDowns
		for ps := core.StateStandby; ps <= core.StateSpinDown; ps++ {
			res.EnergyByState[ps] += st.EnergyIn[ps]
		}
	}
	res.AlwaysOnEnergy = offline.AlwaysOnEnergy(s.cfg.Power, s.cfg.NumDisks, res.Horizon)
	// The disks' "end" events (emitted as they closed, in disk order) plus
	// this run-end marker make the log self-contained: a replay recovers the
	// horizon, the kernel event count and the exact meter totals.
	s.tr.RunEnd(res.Horizon, fired)
	if s.acct != nil {
		// Close the carbon/cost accounting at the horizon (reconciling any
		// bound metric families) and pin its windowed integral to the meters.
		s.acct.Finalize()
		if s.mon != nil {
			s.mon.VerifyWindows(s.acct.ByState(), res.EnergyByState)
		}
	}
	if s.mon != nil {
		// The stream is complete: cross-check the meters' totals against the
		// live integral, then run the suite's end-of-stream checks.
		s.mon.VerifyResult(res.EnergyByState)
		s.mon.Finish()
	}
	if rm := s.rm; rm != nil {
		// Overwrite the live approximations with the authoritative end-of-run
		// values so exporter output matches the report aggregates exactly.
		rm.ReconcileEnergy(res.EnergyByState)
		rm.SpinUps.Reconcile(float64(res.SpinUps))
		rm.SpinDowns.Reconcile(float64(res.SpinDowns))
		rm.Served.Reconcile(float64(res.Served))
		rm.Dropped.Reconcile(float64(res.Dropped))
		rm.Redispatched.Reconcile(float64(res.Redispatched))
		rm.CacheHits.Reconcile(float64(res.CacheHits))
		rm.SimTime.Set(res.Horizon.Seconds())
		rm.EventsFired.Set(float64(fired))
	}
	if err := s.tr.Flush(); err != nil {
		return nil, fmt.Errorf("storage: event sink: %w", err)
	}
	if want := ingested - res.Dropped; res.Served != want {
		return nil, fmt.Errorf("storage: served %d of %d requests", res.Served, want)
	}
	return res, nil
}

// ReadCache absorbs read requests before they reach the scheduler. Access
// returns true on a hit (the request is served from memory) and admits the
// block on a miss. internal/cache provides LRU and power-aware
// implementations.
type ReadCache interface {
	Access(b core.BlockID, v sched.View) bool
}

// WriteInvalidator is optionally implemented by caches that must drop a
// block when it is overwritten.
type WriteInvalidator interface {
	Invalidate(b core.BlockID)
}

// RunOption configures a simulation run.
type RunOption func(*runOptions)

type runOptions struct {
	cache     ReadCache
	failures  []FailureEvent
	stateLog  io.Writer
	tracer    *obs.Tracer
	collector *obs.Collector
	monitor   *monitor.Suite
	acct      *account.Accumulator
	flight    *flight.Recorder
}

// WithCache places a block cache in front of the scheduler: read hits are
// served from memory (no disk activity, ~zero latency at this time scale)
// and writes invalidate cached copies.
func WithCache(c ReadCache) RunOption {
	return func(o *runOptions) { o.cache = c }
}

// WithTracer attaches a structured event tracer to the run: every request
// lifecycle step, power transition and drop is emitted into tr. A nil or
// disabled tracer costs one branch per instrumentation point. When the
// scheduler also traces decisions, pass the same tracer to it (see
// sched.Heuristic.Tracer) so the event streams interleave in one log.
// WithMonitor, WithAccounting and WithFlight subscribe to tr (to a minimal
// internal tracer when WithTracer is absent, in which case scheduler
// decisions are missing from what they see), so give each run its own.
func WithTracer(tr *obs.Tracer) RunOption {
	return func(o *runOptions) { o.tracer = tr }
}

// WithCollector registers the obs.RunMetrics catalog on c and keeps it
// updated during the run: spin operations, per-state energy, request
// outcomes, response-time and queue-depth histograms, and kernel gauges.
// The collector can be snapshotted mid-run; at the end of the run the
// energy and outcome counters are reconciled to the exact report
// aggregates.
func WithCollector(c *obs.Collector) RunOption {
	return func(o *runOptions) { o.collector = c }
}

// WithMonitor tees every traced event into a runtime-verification suite
// (the "doctor"): power-machine legality, energy and request conservation,
// replica validity, threshold compliance and latency sanity are checked
// live as the run executes. At the end of the run the suite's
// end-of-stream checks run and the reported energy totals are
// cross-checked against the stream integral; inspect Suite.Passed /
// WriteReport afterwards. A violation does not abort the run.
func WithMonitor(m *monitor.Suite) RunOption {
	return func(o *runOptions) { o.monitor = m }
}

// WithAccounting tees every traced event into a carbon/cost accounting
// accumulator (internal/account): per-state energy is integrated over the
// grid profile's intensity windows as the run executes, so gCO2e and
// dollar totals are priced window by window rather than from end-of-run
// totals. When a collector is attached, the run binds the accumulator to
// it (Accumulator.Bind). At the end of the run the accounting is finalized,
// reconciling the carbon/cost counter families to the report totals; with
// a monitor also attached, the accumulator's windowed integral is
// cross-checked bit-exactly against the meters (Suite.VerifyWindows).
func WithAccounting(a *account.Accumulator) RunOption {
	return func(o *runOptions) { o.acct = a }
}

// WithFlight attaches an always-on flight recorder: every traced event is
// copied into its ring ahead of the doctor and the accountant, and a dump
// trigger raised by any of them (or by RequestDump from another goroutine,
// e.g. a SIGQUIT handler) is materialised inline, on the observing
// goroutine, right after the event that raised it — so the dump's window
// always ends at the triggering event. With a monitor also attached, each
// violation requests a dump automatically (once; later triggers reuse the
// already-armed request until it is written).
func WithFlight(r *flight.Recorder) RunOption {
	return func(o *runOptions) { o.flight = r }
}

func applyOptions(opts []RunOption) runOptions {
	var o runOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.tracer == nil && (o.monitor != nil || o.acct != nil || o.flight != nil) {
		o.tracer = obs.NewTracer(1)
	}
	// The recorder observes first (its window must include the event a
	// monitor is about to flag) and sweeps pending dump triggers last, so a
	// dump raised by any observer ends at the event that raised it.
	rec := o.flight
	if rec != nil {
		o.tracer.Subscribe(rec.Observe)
	}
	if o.monitor != nil {
		o.tracer.Subscribe(o.monitor.Observe)
		if rec != nil {
			o.monitor.SetOnViolation(func(v monitor.Violation) {
				rec.RequestDump("doctor-" + v.Monitor)
			})
		}
	}
	if o.acct != nil {
		o.tracer.Subscribe(o.acct.Observe)
		o.acct.Bind(o.collector)
	}
	if rec != nil {
		o.tracer.Subscribe(func(obs.Event) {
			if rec.Pending() {
				rec.MaybeDump() // write failures surface via rec.Err()
			}
		})
	}
	return o
}

// cacheHitLatency stands in for a DRAM access — effectively instant at the
// power-management time scale but nonzero so percentile plots keep hits
// visible.
const cacheHitLatency = 100 * time.Microsecond

// lookupCache serves a request from the cache when possible, returning
// true if the request is fully absorbed.
func (s *system) lookupCache(o runOptions, r core.Request) bool {
	if o.cache == nil {
		return false
	}
	if r.Write {
		if inv, ok := o.cache.(WriteInvalidator); ok {
			inv.Invalidate(r.Block)
		}
		return false
	}
	if o.cache.Access(r.Block, s) {
		s.resp.Add(cacheHitLatency)
		s.served++
		s.cacheHits++
		s.tr.CacheHit(s.eng.Now(), r.ID, r.Block, cacheHitLatency)
		if s.rm != nil {
			s.rm.ObserveResponse(cacheHitLatency)
			s.rm.Served.Inc()
			s.rm.CacheHits.Inc()
		}
		return true
	}
	return false
}

// lastArrival returns the latest arrival in reqs, 0 when there is none.
// Runs finish at offline.HorizonAfter of it, as a Live system does, so an
// empty trace still settles to a positive horizon.
func lastArrival(reqs []core.Request) time.Duration {
	var last time.Duration
	for _, r := range reqs {
		last = max(last, r.Arrival)
	}
	return last
}

// RunOnline simulates the online scheduling model (Section 2.2): every
// request is assigned to a disk the moment it arrives.
func RunOnline(cfg Config, loc sched.Locator, scheduler sched.Online, reqs []core.Request, opts ...RunOption) (*Result, error) {
	if scheduler == nil || loc == nil {
		return nil, errors.New("storage: nil scheduler or locator")
	}
	o := applyOptions(opts)
	s, err := newSystem(cfg, loc, o)
	if err != nil {
		return nil, err
	}
	s.resp.Grow(len(reqs))
	deliver := func(r core.Request) {
		d, dec := s.decide(scheduler, r)
		s.deliver(r, d, dec)
	}
	if len(o.failures) > 0 {
		if err := s.armFailures(o.failures, func(r core.Request) {
			s.redispatched++
			deliver(r)
		}); err != nil {
			return nil, err
		}
	}
	// One preloaded run replaces a queue push per request; delivery order
	// is identical to per-request At scheduling.
	s.eng.Preload(reqs, func(r core.Request, now time.Duration) {
		s.tr.Arrive(now, r.ID, r.Block)
		if s.lookupCache(o, r) {
			return
		}
		deliver(r)
	})
	return s.finish(scheduler.Name(), offline.HorizonAfter(lastArrival(reqs), cfg.Power), len(reqs))
}

// RunBatch simulates the batch scheduling model (Section 2.2): arrivals
// queue up and the whole batch is scheduled together at each interval
// boundary, so requests see queueing delay on top of any spin-up delay.
func RunBatch(cfg Config, loc sched.Locator, scheduler sched.Batch, reqs []core.Request, interval time.Duration, opts ...RunOption) (*Result, error) {
	if scheduler == nil || loc == nil {
		return nil, errors.New("storage: nil scheduler or locator")
	}
	if interval <= 0 {
		return nil, fmt.Errorf("storage: batch interval %s must be positive", interval)
	}
	o := applyOptions(opts)
	s, err := newSystem(cfg, loc, o)
	if err != nil {
		return nil, err
	}
	s.resp.Grow(len(reqs))
	// pending and spare double-buffer the batch queue: each tick takes the
	// accumulated batch and hands arrivals (and mid-tick failover re-queues)
	// the other buffer, so steady-state ticking reuses two slices instead of
	// reallocating the queue every interval.
	var pending, spare []core.Request
	tickScheduled := false

	var tick func(now time.Duration)
	tick = func(now time.Duration) {
		tickScheduled = false
		if len(pending) == 0 {
			return
		}
		batch := pending
		pending = spare[:0]
		s.decideBatch(scheduler, batch, func(i int, d core.DiskID, dec obs.DecisionID) {
			s.deliver(batch[i], d, dec)
		})
		spare = batch[:0] // drained: recycle as the next tick's batch buffer
	}
	// enqueue adds r to the next interval boundary's batch.
	enqueue := func(r core.Request) {
		pending = append(pending, r)
		if !tickScheduled {
			tickScheduled = true
			s.eng.At((s.eng.Now()/interval+1)*interval, tick)
		}
	}
	if len(o.failures) > 0 {
		if err := s.armFailures(o.failures, func(r core.Request) {
			s.redispatched++
			enqueue(r)
		}); err != nil {
			return nil, err
		}
	}
	s.eng.Preload(reqs, func(r core.Request, now time.Duration) {
		s.tr.Arrive(now, r.ID, r.Block)
		if s.lookupCache(o, r) {
			return
		}
		enqueue(r)
	})
	return s.finish(scheduler.Name(), offline.HorizonAfter(lastArrival(reqs), cfg.Power), len(reqs))
}

// WithStateLog streams every disk power-state transition to w as CSV
// ("seconds,disk,from,to"), enabling external timeline visualization of
// runs (the raw data behind Figure 9-style plots).
func WithStateLog(w io.Writer) RunOption {
	return func(o *runOptions) { o.stateLog = w }
}
