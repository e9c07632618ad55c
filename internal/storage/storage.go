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
	// Shards partitions the event kernel into per-rack sub-kernels that
	// advance concurrently under conservative synchronization. 0 or 1 selects
	// the serial kernel. Any value produces bit-identical results — traces,
	// metrics, response-time sample order — to the serial path; see
	// simkernel.Sharded.
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
	if c.Shards < 0 {
		return fmt.Errorf("storage: Shards = %d", c.Shards)
	}
	if c.Shards > c.NumDisks {
		return fmt.Errorf("storage: Shards = %d exceeds NumDisks = %d (a shard must own at least one disk)", c.Shards, c.NumDisks)
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

// system wires an engine, disks and metrics together and implements
// sched.View.
type system struct {
	cfg Config
	eng simkernel.Kernel
	// base is the global ID of disks[0]: a full system has base 0, a
	// serving-shard sub-range system (see LiveSet) owns the global disks
	// [base, base+len(disks)) and indexes disks by gid-base.
	base   int
	serial simkernel.Engine // backs eng on the serial (Shards <= 1) path
	disks  []*diskmodel.Disk
	resp   metrics.ResponseTimes
	observers
	jr           *shardJournal // canonical-order capture for sub-range systems
	err          error
	served       int
	dropped      int
	unavailable  int
	redispatched int
	cacheHits    int
}

var _ sched.View = (*system)(nil)

// observers are the run-level sinks a run closes when it ends.
type observers struct {
	tr   *obs.Tracer
	rm   *obs.RunMetrics
	mon  *monitor.Suite
	acct *account.Accumulator
}

func newSystem(cfg Config, o runOptions) (*system, error) {
	return newSystemRange(cfg, o, 0, cfg.NumDisks, nil)
}

// newSystemRange builds a system over the global disk range
// [base, base+count). The full range with a nil journal is the classic
// path; a sub-range is one serving shard's slice of the fleet: its disks
// keep their global IDs, its kernel is always serial, and jr (when
// non-nil) captures every emission — relay-traced events, completions,
// transitions, queue depths — into the shard journal so LiveSet can merge
// the per-shard streams into the canonical global order.
func newSystemRange(cfg Config, o runOptions, base, count int, jr *shardJournal) (*system, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if base < 0 || count <= 0 || base+count > cfg.NumDisks {
		return nil, fmt.Errorf("storage: disk range [%d, %d) outside population %d", base, base+count, cfg.NumDisks)
	}
	if cfg.Shards > 1 && (base != 0 || count != cfg.NumDisks) {
		return nil, errors.New("storage: a sub-range system runs the serial kernel")
	}
	policy := cfg.Policy
	if policy == nil {
		policy = power.TwoCompetitive{Config: cfg.Power}
	}
	s := &system{cfg: cfg, base: base, disks: make([]*diskmodel.Disk, count), jr: jr,
		observers: observers{tr: o.tracer, mon: o.monitor, acct: o.acct}}
	var se *simkernel.Sharded
	if cfg.Shards > 1 {
		se = simkernel.NewSharded(cfg.NumDisks, cfg.Shards, 0)
		s.eng = se
	} else {
		s.eng = &s.serial
	}
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
	if jr != nil {
		// Journaling shard: completions and transitions are recorded in the
		// shard journal and applied — response samples, state-log lines,
		// metrics — in canonical global order at merge time. Only the local
		// served counter (conservation bookkeeping) advances here.
		onDone = func(req core.Request, done time.Duration) {
			s.served++
			jr.done(req, done)
		}
		onTrans = func(d core.DiskID, now time.Duration, from, to core.DiskState, e obs.EnergyDelta) {
			jr.trans(d, now, from, to, e)
		}
	}
	// Sharded runs give each shard a private relay tracer: disks emit into
	// it from the shard's goroutine, and its observer defers each event into
	// the real tracer, which re-stamps the sequence number at effect-replay
	// time. Replay order is the canonical global event order, so the merged
	// stream is byte-identical to a serial run's — monitors, sinks, and
	// replay tools can't tell the difference.
	var shardTrs []*obs.Tracer
	if se != nil && o.tracer.Enabled() {
		shardTrs = make([]*obs.Tracer, se.NumShards())
	}
	for i := range s.disks {
		gid := core.DiskID(base + i)
		sim := simkernel.Sim(s.eng)
		tr := o.tracer
		done := onDone
		trans := onTrans
		if se != nil {
			view := se.DiskSim(gid)
			sim = view
			done = func(req core.Request, doneAt time.Duration) {
				view.Defer(func() { onDone(req, doneAt) })
			}
			if onTrans != nil {
				trans = func(d core.DiskID, now time.Duration, from, to core.DiskState, e obs.EnergyDelta) {
					view.Defer(func() { onTrans(d, now, from, to, e) })
				}
			}
			if shardTrs != nil {
				idx := simkernel.ShardOf(gid, cfg.NumDisks, se.NumShards())
				if shardTrs[idx] == nil {
					st := obs.NewTracer(1)
					st.SetObserver(func(ev obs.Event) {
						view.Defer(func() { s.tr.Emit(ev) })
					})
					shardTrs[idx] = st
				}
				tr = shardTrs[idx]
			}
		}
		d, err := diskmodel.New(gid, cfg.Mech, cfg.Power, policy, sim, done,
			diskmodel.Options{
				InitialState: cfg.InitialState,
				Discipline:   cfg.Discipline,
				OnTransition: trans,
				Tracer:       tr,
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
func (s *system) DiskState(d core.DiskID) core.DiskState { return s.disks[int(d)-s.base].State() }

// Load implements sched.View.
func (s *system) Load(d core.DiskID) int { return s.disks[int(d)-s.base].Load() }

// LastRequestTime implements sched.View.
func (s *system) LastRequestTime(d core.DiskID) (time.Duration, bool) {
	return s.disks[int(d)-s.base].LastRequestTime()
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
	if s.jr != nil {
		s.jr.drop()
	}
}

// submit hands the request to its chosen disk, emitting the dispatch event
// and the queue-depth observation. dec is the scheduler decision being
// executed (0 when the scheduler is untraced), threaded down so any
// spin-up the arrival triggers is attributed to it in the log.
func (s *system) submit(req core.Request, d core.DiskID, dec obs.DecisionID) {
	s.tr.Dispatch(s.eng.Now(), req.ID, req.Block, d, dec)
	disk := s.disks[int(d)-s.base]
	disk.SubmitCaused(req, dec)
	if s.rm != nil {
		s.rm.QueueDepth.Observe(float64(disk.Load()))
	}
	if s.jr != nil {
		s.jr.depth(disk.Load())
	}
}

// dispatch validates the scheduling decision and submits the request.
func (s *system) dispatch(req core.Request, d core.DiskID, loc sched.Locator, dec obs.DecisionID) {
	if d == core.InvalidDisk {
		s.drop(req)
		return
	}
	if int(d) < s.base || int(d) >= s.base+len(s.disks) {
		s.fail(fmt.Errorf("storage: scheduler chose disk %d outside range [%d, %d) for %v", d, s.base, s.base+len(s.disks), req))
		return
	}
	valid := false
	for _, l := range loc(req.Block) {
		if l == d {
			valid = true
			break
		}
	}
	if !valid {
		s.fail(fmt.Errorf("storage: scheduler chose off-replica disk %d for %v", d, req))
		return
	}
	s.submit(req, d, dec)
}

// lastDecision derives the ID of the decision a traced scheduler just
// emitted: the tracer's decision counter was base before the Schedule
// call, so if it advanced, the (deterministic, single-threaded) run's
// newest decision caused this dispatch. Untraced schedulers leave the
// counter unchanged and the dispatch carries no decision ID.
func (s *system) lastDecision(base uint64) obs.DecisionID {
	if n := s.tr.DecisionCount(); n > base {
		return obs.DecisionID(n)
	}
	return 0
}

// finish drains the engine up to the workload horizon (not beyond it for
// administrative events such as distant repairs), extends accounting to
// the normalization horizon, and collects results.
func (s *system) finish(name string, reqs []core.Request) (*Result, error) {
	end := s.eng.RunUntil(offline.Horizon(reqs, s.cfg.Power))
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
	return s.closeRun(s.cfg, res, s.eng.Fired(), len(reqs))
}

// settleTail is how far a run's clock advances past its last completion so
// the trailing idle timeouts and spin-downs settle inside the horizon.
func settleTail(p power.Config) time.Duration {
	return p.Breakeven() + p.SpinDownTime + time.Second
}

// closeDisks closes every disk in range order, emitting their end-of-run
// accounting events, and returns their final stats (index i is global
// disk base+i). No further simulation may run after this.
func (s *system) closeDisks() []diskmodel.Stats {
	out := make([]diskmodel.Stats, len(s.disks))
	for i, d := range s.disks {
		out[i] = d.Close()
	}
	return out
}

// closeRun is the end-of-run sequence every runner shares. The caller has
// closed the disks into res.PerDisk (global disk order) and filled in the
// request counters and the horizon. closeRun sums the disks in that order,
// so float totals match bit for bit across runners, computes the always-on
// baseline, emits the run-end marker, closes the carbon/cost accounting,
// runs the doctor's end-of-stream checks, reconciles the metrics export to
// the exact totals, flushes the event sink, and checks that every one of
// the ingested requests was served or dropped. fired is the kernel's
// executed-event count.
func (ob *observers) closeRun(cfg Config, res *Result, fired uint64, ingested int) (*Result, error) {
	for _, st := range res.PerDisk {
		res.Energy += st.Energy
		res.SpinUps += st.SpinUps
		res.SpinDowns += st.SpinDowns
		for ps := core.StateStandby; ps <= core.StateSpinDown; ps++ {
			res.EnergyByState[ps] += st.EnergyIn[ps]
		}
	}
	res.AlwaysOnEnergy = offline.AlwaysOnEnergy(cfg.Power, cfg.NumDisks, res.Horizon)
	// The disks' "end" events (emitted as they closed, in disk order) plus
	// this run-end marker make the log self-contained: a replay recovers the
	// horizon, the kernel event count and the exact meter totals.
	ob.tr.RunEnd(res.Horizon, fired)
	if ob.acct != nil {
		// Close the carbon/cost accounting at the horizon (reconciling any
		// bound metric families) and pin its windowed integral to the meters.
		ob.acct.Finalize()
		if ob.mon != nil {
			ob.mon.VerifyWindows(ob.acct.ByState(), res.EnergyByState)
		}
	}
	if ob.mon != nil {
		// The stream is complete: cross-check the meters' totals against the
		// live integral, then run the suite's end-of-stream checks.
		ob.mon.VerifyResult(res.EnergyByState)
		ob.mon.Finish()
	}
	if rm := ob.rm; rm != nil {
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
	if ob.tr != nil {
		if err := ob.tr.Flush(); err != nil {
			return nil, fmt.Errorf("storage: event sink: %w", err)
		}
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
// live as the run executes. When no WithTracer is given, a minimal
// internal tracer is created to feed the suite (scheduler decisions are
// then absent from the stream; pass a shared traced scheduler + WithTracer
// for full coverage). At the end of the run the suite's end-of-stream
// checks run and the reported energy totals are cross-checked against the
// stream integral; inspect Suite.Passed / WriteReport afterwards. A
// violation does not abort the run.
func WithMonitor(m *monitor.Suite) RunOption {
	return func(o *runOptions) { o.monitor = m }
}

// WithAccounting tees every traced event into a carbon/cost accounting
// accumulator (internal/account): per-state energy is integrated over the
// grid profile's intensity windows as the run executes, so gCO2e and
// dollar totals are priced window by window rather than from end-of-run
// totals. When no WithTracer is given, a minimal internal tracer is
// created to feed the accumulator. At the end of the run the accounting
// is finalized (and, when a collector is attached, the carbon/cost
// counter families are reconciled to the report totals); with a monitor
// also attached, the accumulator's windowed integral is cross-checked
// bit-exactly against the meters (Suite.VerifyWindows).
func WithAccounting(a *account.Accumulator) RunOption {
	return func(o *runOptions) { o.acct = a }
}

// WithFlight attaches an always-on flight recorder: every traced event is
// copied into its ring ahead of the doctor and the accountant, and a dump
// trigger raised by any of them (or by RequestDump from another goroutine,
// e.g. a SIGQUIT handler) is materialised inline, on the observing
// goroutine, right after the event that raised it — so the dump's window
// always ends at the triggering event. When no WithTracer is given, a
// minimal internal tracer is created to feed the recorder. With a monitor
// also attached, each violation requests a dump automatically (once; later
// triggers reuse the already-armed request until it is written).
func WithFlight(r *flight.Recorder) RunOption {
	return func(o *runOptions) { o.flight = r }
}

func applyOptions(opts []RunOption) runOptions {
	var o runOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.monitor != nil || o.acct != nil || o.flight != nil {
		if o.tracer == nil {
			o.tracer = obs.NewTracer(1)
		}
		// The tracer holds a single observer slot; chain the recorder, the
		// doctor and the accountant when several are attached. The recorder
		// observes first (its window must include the event a monitor is
		// about to flag) and sweeps pending dump triggers last.
		var chain []func(obs.Event)
		if o.flight != nil {
			chain = append(chain, o.flight.Observe)
			if o.monitor != nil {
				rec := o.flight
				o.monitor.SetOnViolation(func(v monitor.Violation) {
					rec.RequestDump("doctor-" + v.Monitor)
				})
			}
		}
		if o.monitor != nil {
			chain = append(chain, o.monitor.Observe)
		}
		if o.acct != nil {
			chain = append(chain, o.acct.Observe)
		}
		switch rec := o.flight; {
		case rec != nil:
			o.tracer.SetObserver(func(ev obs.Event) {
				for _, f := range chain {
					f(ev)
				}
				if rec.Pending() {
					rec.MaybeDump() // write failures surface via rec.Err()
				}
			})
		case len(chain) == 1:
			o.tracer.SetObserver(chain[0])
		default:
			o.tracer.SetObserver(func(ev obs.Event) {
				for _, f := range chain {
					f(ev)
				}
			})
		}
	}
	if o.acct != nil && o.collector != nil {
		o.acct.Bind(o.collector)
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

// RunOnline simulates the online scheduling model (Section 2.2): every
// request is assigned to a disk the moment it arrives.
func RunOnline(cfg Config, loc sched.Locator, scheduler sched.Online, reqs []core.Request, opts ...RunOption) (*Result, error) {
	if scheduler == nil || loc == nil {
		return nil, errors.New("storage: nil scheduler or locator")
	}
	o := applyOptions(opts)
	s, err := newSystem(cfg, o)
	if err != nil {
		return nil, err
	}
	s.resp.Grow(len(reqs))
	deliver := func(r core.Request) {
		base := s.tr.DecisionCount()
		d := scheduler.Schedule(r, s)
		dec := s.lastDecision(base)
		if s.rm != nil {
			s.rm.Decisions.Inc()
		}
		if len(o.failures) > 0 {
			s.dispatchWithFailover(r, d, loc, dec)
			return
		}
		s.dispatch(r, d, loc, dec)
	}
	if len(o.failures) > 0 {
		if err := s.armFailures(o.failures, func(r core.Request) {
			s.redispatched++
			deliver(r)
		}); err != nil {
			return nil, err
		}
	}
	// One preloaded run replaces a heap push per request; delivery order is
	// identical to per-request At scheduling.
	s.eng.Preload(reqs, func(r core.Request, now time.Duration) {
		s.tr.Arrive(now, r.ID, r.Block)
		if s.lookupCache(o, r) {
			return
		}
		deliver(r)
	})
	return s.finish(scheduler.Name(), reqs)
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
	s, err := newSystem(cfg, o)
	if err != nil {
		return nil, err
	}
	s.resp.Grow(len(reqs))
	deliver := func(r core.Request, d core.DiskID, dec obs.DecisionID) {
		if len(o.failures) > 0 {
			s.dispatchWithFailover(r, d, loc, dec)
			return
		}
		s.dispatch(r, d, loc, dec)
	}
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
		base := s.tr.DecisionCount()
		assignment := scheduler.ScheduleBatch(batch, s)
		if len(assignment) != len(batch) {
			s.fail(fmt.Errorf("storage: batch scheduler returned %d assignments for %d requests",
				len(assignment), len(batch)))
			return
		}
		if s.rm != nil {
			s.rm.Decisions.Add(float64(len(batch)))
		}
		// A traced batch scheduler emits one decision per placed request, in
		// batch order (sched.traceBatchDecisions); when the counter advanced
		// by exactly that many, re-walk the batch in the same order to pair
		// each placed request with its decision ID.
		placed := 0
		for _, d := range assignment {
			if d != core.InvalidDisk {
				placed++
			}
		}
		traced := placed > 0 && s.tr.DecisionCount() == base+uint64(placed)
		k := base
		for i, r := range batch {
			var dec obs.DecisionID
			if traced && assignment[i] != core.InvalidDisk {
				k++
				dec = obs.DecisionID(k)
			}
			deliver(r, assignment[i], dec)
		}
		spare = batch[:0] // drained: recycle as the next tick's batch buffer
	}
	if len(o.failures) > 0 {
		if err := s.armFailures(o.failures, func(r core.Request) {
			s.redispatched++
			// Re-queue into the next batch tick.
			pending = append(pending, r)
			if !tickScheduled {
				tickScheduled = true
				boundary := (s.eng.Now()/interval + 1) * interval
				s.eng.At(boundary, tick)
			}
		}); err != nil {
			return nil, err
		}
	}
	s.eng.Preload(reqs, func(r core.Request, now time.Duration) {
		s.tr.Arrive(now, r.ID, r.Block)
		if s.lookupCache(o, r) {
			return
		}
		pending = append(pending, r)
		if !tickScheduled {
			tickScheduled = true
			boundary := (now/interval + 1) * interval
			s.eng.At(boundary, tick)
		}
	})
	return s.finish(scheduler.Name(), reqs)
}

// WithStateLog streams every disk power-state transition to w as CSV
// ("seconds,disk,from,to"), enabling external timeline visualization of
// runs (the raw data behind Figure 9-style plots).
func WithStateLog(w io.Writer) RunOption {
	return func(o *runOptions) { o.stateLog = w }
}
