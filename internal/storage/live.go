package storage

import (
	"errors"
	"time"

	"repro/internal/account"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/simkernel"
)

// Live is the streaming facade over the simulated storage system: where
// RunOnline/RunBatch consume a complete preloaded trace, a Live system is
// fed one request at a time by a long-lived caller (internal/serve's
// decision loop) that interleaves clock advancement, scheduling decisions
// and dispatches. It reuses the exact disk, power-meter, tracer and metrics
// plumbing of the batch runners, so a serving run's event log and energy
// accounting are indistinguishable from a batch run's.
//
// A Live system is single-goroutine like the underlying kernel: the caller
// must serialize all method calls. The lifecycle is
//
//	lv := NewLive(cfg, opts...)
//	for each request r:
//	    lv.Advance(r.Arrival)        // fire completions and spin-downs
//	    lv.Arrive(r)                 // emit the arrival event
//	    d := scheduler.Schedule(r, lv.View())
//	    lv.Dispatch(r, d, loc, dec)  // or lv.Drop(r) / lv.Reject(r)
//	lv.Finish(name)                  // drain, settle, reconcile, report
type Live struct {
	sys *system
	loc sched.Locator
	// ingested counts requests that produced an Arrive event; Finish
	// cross-checks served+dropped against it exactly as the batch path does.
	ingested int
	finished bool
}

// NewLive builds a streaming system. The same RunOptions as RunOnline apply
// (tracer, collector, monitor, state log); failure injection and caches are
// batch-run features and are rejected here.
func NewLive(cfg Config, loc sched.Locator, opts ...RunOption) (*Live, error) {
	if loc == nil {
		return nil, errors.New("storage: nil locator")
	}
	o := applyOptions(opts)
	if len(o.failures) > 0 {
		return nil, errors.New("storage: failure injection is not supported on a Live system")
	}
	if o.cache != nil {
		return nil, errors.New("storage: caches are not supported on a Live system")
	}
	s, err := newSystem(cfg, o)
	if err != nil {
		return nil, err
	}
	return &Live{sys: s, loc: loc}, nil
}

// View returns the scheduler's read-only window onto the running system
// (current virtual time, per-disk power state, load and last-request time).
func (l *Live) View() sched.View { return l.sys }

// Now returns the current virtual time.
func (l *Live) Now() time.Duration { return l.sys.eng.Now() }

// Advance runs the kernel up to t, firing every completion, idle timeout
// and spin transition scheduled before then, and leaves the clock at t.
// Advancing into the past is a no-op (the clock never rewinds).
func (l *Live) Advance(t time.Duration) {
	if t <= l.sys.eng.Now() {
		return
	}
	l.sys.eng.RunUntil(t)
}

// Err returns the first internal simulation error, if any. Once set, the
// system is poisoned and Finish will return it.
func (l *Live) Err() error { return l.sys.err }

// Arrive records a request's arrival at the current virtual time. Every
// Arrive must be balanced by exactly one Dispatch or Drop so request
// conservation holds at Finish.
func (l *Live) Arrive(r core.Request) {
	l.ingested++
	l.sys.tr.Arrive(l.sys.eng.Now(), r.ID, r.Block)
}

// DecisionBase returns the tracer's decision counter; pass it to Dispatch
// so the dispatch event carries the decision a traced scheduler just
// emitted (see system.lastDecision).
func (l *Live) DecisionBase() uint64 { return l.sys.tr.DecisionCount() }

// Dispatch validates the scheduling decision against the placement and
// submits the request to its disk. base is the DecisionBase captured before
// the scheduler ran (0 for untraced schedulers).
func (l *Live) Dispatch(r core.Request, d core.DiskID, base uint64) {
	if l.sys.rm != nil {
		l.sys.rm.Decisions.Inc()
	}
	l.sys.dispatch(r, d, l.loc, l.sys.lastDecision(base))
}

// DispatchDecision submits the request with an explicit decision ID —
// the batch pairing path, where one traced ScheduleBatch emits a decision
// per placed request and the caller re-walks the batch to pair them (see
// RunBatch). dec 0 means the dispatch carries no decision.
func (l *Live) DispatchDecision(r core.Request, d core.DiskID, dec obs.DecisionID) {
	if l.sys.rm != nil {
		l.sys.rm.Decisions.Inc()
	}
	l.sys.dispatch(r, d, l.loc, dec)
}

// Drop records that an arrived request could not be served (no replica, or
// rejected by serving policy after admission, e.g. a deadline expiry).
func (l *Live) Drop(r core.Request) { l.sys.drop(r) }

// Outstanding returns the number of requests queued or in service across
// all disks.
func (l *Live) Outstanding() int {
	n := 0
	for _, d := range l.sys.disks {
		n += d.Load()
	}
	return n
}

// Served returns the number of completed requests so far.
func (l *Live) Served() int { return l.sys.served }

// Accounting returns the carbon/cost accumulator attached via
// WithAccounting, or nil. Callers may snapshot it (Accumulator.Snapshot)
// from the same goroutine that drives the system.
func (l *Live) Accounting() *account.Accumulator { return l.sys.acct }

// Dropped returns the number of dropped requests so far.
func (l *Live) Dropped() int { return l.sys.dropped }

// KernelStats snapshots the engine's introspection counters: events fired,
// calendar-queue operations, rebuilds and high-water marks, slot hits and
// event-pool growth. A Live system runs on one Engine, so the snapshot
// holds exactly one shard and carries no wall-clock attribution. Safe to
// call from the driving goroutine at any point in the lifecycle.
func (l *Live) KernelStats() *simkernel.KernelStats { return l.sys.eng.Telemetry() }

// DiskSnapshot is one disk's live state for status surfaces (/state).
type DiskSnapshot struct {
	Disk      core.DiskID
	State     core.DiskState
	Load      int
	Served    int
	EnergyJ   float64 // settled meter energy (accrues at state transitions)
	SpinUps   int
	SpinDowns int
}

// Snapshot returns the per-disk live state in disk order. Energy is the
// meter's settled total: it advances at each state transition, so a disk
// sitting in one state shows the energy as of entering it.
func (l *Live) Snapshot() []DiskSnapshot {
	out := make([]DiskSnapshot, len(l.sys.disks))
	for i, d := range l.sys.disks {
		st := d.Stats()
		out[i] = DiskSnapshot{
			Disk:      core.DiskID(i),
			State:     d.State(),
			Load:      d.Load(),
			Served:    st.Served,
			EnergyJ:   st.Energy,
			SpinUps:   st.SpinUps,
			SpinDowns: st.SpinDowns,
		}
	}
	return out
}

// Finish drains the system — every outstanding request completes, trailing
// idle timeouts and spin-downs settle — closes the disks, reconciles the
// metrics export to the exact meter totals and returns the run result. The
// horizon extends at least one replacement window past the last event so
// always-on normalization matches the batch runners' convention.
func (l *Live) Finish(name string) (*Result, error) {
	if l.finished {
		return nil, errors.New("storage: Finish called twice on a Live system")
	}
	l.finished = true
	s := l.sys
	for s.err == nil && l.Outstanding() > 0 {
		if !s.eng.Step() {
			break
		}
	}
	if s.err != nil {
		return nil, s.err
	}
	end := s.eng.Now() + settleTail(s.cfg.Power)
	s.eng.RunUntil(end)
	if s.err != nil {
		return nil, s.err
	}
	res := &Result{
		Scheduler: name,
		Served:    s.served,
		Dropped:   s.dropped,
		Horizon:   end,
		Response:  s.resp,
		PerDisk:   s.closeDisks(),
	}
	return s.closeRun(res, l.ingested)
}
