package storage

import (
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/offline"
	"repro/internal/sched"
	"repro/internal/simkernel"
)

// Live is the streaming facade over the simulated storage system: where
// RunOnline/RunBatch consume a complete preloaded trace, a Live system is
// fed one request at a time by a long-lived caller (internal/serve's
// decision loop) that interleaves clock advancement, scheduling decisions
// and dispatches. Its decision, dispatch and finish steps are the ones
// RunOnline and RunBatch run, so a serving run's event log and energy
// accounting are those of a simulated run over the same arrivals.
//
// A Live system is single-goroutine like the underlying kernel: the caller
// must serialize all method calls. The lifecycle is
//
//	lv, err := NewLive(cfg, loc, opts...)
//	for each request r:
//	    lv.Advance(r.Arrival)       // fire completions and spin-downs before r
//	    lv.Arrive(r)                // emit the arrival event
//	    d, dec := lv.Decide(sc, r)  // or lv.DecideBatch over gathered arrivals
//	    lv.Deliver(r, d, dec)       // dispatch; InvalidDisk drops
//	lv.Finish(name)                 // drain, settle, reconcile, report
//
// Drop rejects an arrived request without deciding it (a deadline expiry).
type Live struct {
	sys *system
	// ingested counts requests that produced an Arrive event, and last is
	// the latest of their arrival times: Finish settles at the horizon the
	// simulator derives from the last arrival and cross-checks
	// served+dropped against ingested, as RunOnline does.
	ingested int
	last     time.Duration
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
	s, err := newSystem(cfg, loc, o)
	if err != nil {
		return nil, err
	}
	return &Live{sys: s}, nil
}

// View returns the scheduler's read-only window onto the running system
// (current virtual time, per-disk power state, load and last-request time).
func (l *Live) View() sched.View { return l.sys }

// Now returns the current virtual time.
func (l *Live) Now() time.Duration { return l.sys.eng.Now() }

// Advance runs the kernel up to t, firing every completion, idle timeout
// and spin transition scheduled strictly before then, and leaves the clock
// at t. Events at exactly t stay queued, so a request arriving at t is
// seen first, as RunOnline's preloaded arrivals are. Advancing into the
// past is a no-op (the clock never rewinds).
func (l *Live) Advance(t time.Duration) { l.sys.eng.RunBefore(t) }

// Err returns the first internal simulation error, if any. Once set, the
// system is poisoned and Finish will return it.
func (l *Live) Err() error { return l.sys.err }

// Arrive records a request's arrival at the current virtual time. Every
// Arrive must be balanced by exactly one Deliver or Drop so request
// conservation holds at Finish.
func (l *Live) Arrive(r core.Request) {
	l.ingested++
	l.last = l.sys.eng.Now()
	l.sys.tr.Arrive(l.last, r.ID, r.Block)
}

// Decide runs RunOnline's decision step: sc assigns r at the current
// virtual time. It returns the chosen disk (InvalidDisk when no replica
// qualifies) and the ID of the decision a traced scheduler emitted (0 when
// untraced); pass both to Deliver.
func (l *Live) Decide(sc sched.Online, r core.Request) (core.DiskID, obs.DecisionID) {
	return l.sys.decide(sc, r)
}

// DecideBatch runs RunBatch's decision step: sc assigns the whole batch at
// once, then each(i, d, dec) runs for batch[i] in batch order with its
// disk and decision ID; each should Deliver it. A scheduler returning the
// wrong number of assignments poisons the system (see Err) and each runs
// for no request.
func (l *Live) DecideBatch(sc sched.Batch, batch []core.Request, each func(i int, d core.DiskID, dec obs.DecisionID)) {
	l.sys.decideBatch(sc, batch, each)
}

// Deliver executes a decision exactly as the simulated runs do: the request
// is validated against the placement and submitted to disk d with decision
// ID dec, or dropped when d is InvalidDisk.
func (l *Live) Deliver(r core.Request, d core.DiskID, dec obs.DecisionID) {
	l.sys.deliver(r, d, dec)
}

// Drop records that an arrived request was rejected without a decision
// (by serving policy after admission, e.g. a deadline expiry).
func (l *Live) Drop(r core.Request) { l.sys.drop(r) }

// Served returns the number of completed requests so far.
func (l *Live) Served() int { return l.sys.served }

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

// Finish runs RunOnline's end of run: every outstanding request completes,
// the run settles to the accounting horizon of the last arrival
// (offline.Horizon; later if the clock or the last completion is past it),
// the disks close, the metrics export is reconciled to the exact meter
// totals and the run result is returned.
func (l *Live) Finish(name string) (*Result, error) {
	if l.finished {
		return nil, errors.New("storage: Finish called twice on a Live system")
	}
	l.finished = true
	return l.sys.finish(name, offline.HorizonAfter(l.last, l.sys.cfg.Power), l.ingested)
}
