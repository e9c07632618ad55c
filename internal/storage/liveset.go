package storage

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/account"
	"repro/internal/diskmodel"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/sched"
	"repro/internal/simkernel"
)

// LiveSet partitions a fleet into per-rack serving shards, each a Live
// facade over a contiguous disk range with its own serial kernel and
// virtual-clock segment, and merges their observability streams back into
// the canonical global order (see journal.go). It is the storage-layer
// half of the sharded serving engine: internal/serve owns the concurrency
// (per-shard combining tokens, admission rings); this type owns the
// partitioning, the journals and the end-of-run merge, so a sharded run's
// trace, state log, metrics and energy report are byte-identical to a
// serial run over the same admission order.
//
// Shard methods (via Shard(i)) follow Live's single-goroutine rule: the
// caller must serialize all calls into one shard. Different shards are
// independent. Flush, SetGauges and Finish run on one goroutine at a time.
//
// With shards == 1 the set degenerates to a single full-range Live wired
// directly to the run options — no journal, no merge, no overhead over
// NewLive.
type LiveSet struct {
	cfg      Config
	loc      sched.Locator
	opts     runOptions
	shards   []*Live
	bases    []int
	journals []*shardJournal // nil when not journaling
	m        *merger
	resp     metrics.ResponseTimes // canonical samples (journaling mode)
	finished bool
}

// NewLiveSet builds a streaming system partitioned into shards decision
// shards. canonical forces journaling even without observers attached, so
// response samples accumulate in global arrival order (Sequential mode
// wants this; Live mode can skip it and concatenate per-shard samples at
// Finish). The same RunOptions as NewLive apply, with the same
// restrictions; any attached observer (tracer, collector, monitor,
// accounting, flight, state log) switches the set to journaling mode,
// since those surfaces are single-stream by contract.
func NewLiveSet(cfg Config, loc sched.Locator, shards int, canonical bool, opts ...RunOption) (*LiveSet, error) {
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
	if shards <= 0 {
		shards = 1
	}
	if shards > cfg.NumDisks {
		return nil, fmt.Errorf("storage: %d serving shards exceed %d disks", shards, cfg.NumDisks)
	}
	ls := &LiveSet{cfg: cfg, loc: loc, opts: o, bases: make([]int, shards)}
	if shards == 1 {
		lv, err := newLiveRange(cfg, loc, o, 0, cfg.NumDisks, nil)
		if err != nil {
			return nil, err
		}
		ls.shards = []*Live{lv}
		return ls, nil
	}
	journaling := canonical || o.tracer != nil || o.collector != nil || o.stateLog != nil
	if journaling {
		ls.journals = make([]*shardJournal, shards)
		// A dispatch-caused spin-up settles within the spin-up time, and no
		// later record references the decision after its disk returns to
		// standby; one full policy cycle bounds the reference horizon.
		decHorizon := cfg.Power.SpinUpTime + cfg.Power.SpinDownTime + cfg.Power.Breakeven()
		ls.m = newMerger(shards, o, &ls.resp, decHorizon)
	}
	ls.shards = make([]*Live, shards)
	for i := range ls.shards {
		base, count := simkernel.ShardRange(cfg.NumDisks, shards, i)
		ls.bases[i] = base
		var jr *shardJournal
		so := runOptions{}
		if journaling {
			jr = &shardJournal{idx: uint64(i)}
			if o.tracer != nil {
				// The relay captures the shard's emissions in journal order;
				// sequence numbers are re-stamped by the real tracer at merge.
				relay := obs.NewTracer(1)
				j := jr
				relay.SetObserver(func(ev obs.Event) { j.event(ev) })
				so.tracer = relay
			}
			ls.journals[i] = jr
		}
		lv, err := newLiveRange(cfg, loc, so, base, count, jr)
		if err != nil {
			return nil, err
		}
		ls.shards[i] = lv
	}
	return ls, nil
}

// NumShards returns the number of decision shards.
func (ls *LiveSet) NumShards() int { return len(ls.shards) }

// Shard returns shard i's streaming facade.
func (ls *LiveSet) Shard(i int) *Live { return ls.shards[i] }

// ShardRange returns the global disk range [base, base+count) owned by
// shard i.
func (ls *LiveSet) ShardRange(i int) (base, count int) {
	return simkernel.ShardRange(ls.cfg.NumDisks, len(ls.shards), i)
}

// Journaling reports whether emissions are being journaled for canonical
// merge (always false with one shard, where the single Live emits
// directly).
func (ls *LiveSet) Journaling() bool { return ls.journals != nil }

// Err returns the first shard's internal simulation error, if any.
func (ls *LiveSet) Err() error {
	for _, lv := range ls.shards {
		if err := lv.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Served sums completed requests across shards. Like all cross-shard
// reads, the caller must hold every shard quiescent for an exact value.
func (ls *LiveSet) Served() int {
	n := 0
	for _, lv := range ls.shards {
		n += lv.Served()
	}
	return n
}

// Dropped sums dropped requests across shards.
func (ls *LiveSet) Dropped() int {
	n := 0
	for _, lv := range ls.shards {
		n += lv.Dropped()
	}
	return n
}

// Accounting returns the carbon/cost accumulator attached via
// WithAccounting, or nil. In journaling mode it observes the merged
// stream, so snapshots must be taken on the merging goroutine.
func (ls *LiveSet) Accounting() *account.Accumulator { return ls.opts.acct }

// Flight returns the flight recorder attached via WithFlight, or nil.
func (ls *LiveSet) Flight() *flight.Recorder { return ls.opts.flight }

// Flush merges and applies every journaled record below the watermark
// upTo. The caller must guarantee no shard can append a record keyed
// before upTo: each shard's future keys are at or after its published
// clock, so the minimum of the published clocks is a safe watermark.
func (ls *LiveSet) Flush(upTo time.Duration) {
	if ls.m != nil {
		ls.m.merge(ls.journals, upTo)
	}
}

// SetGauges publishes the live sim-time and events-fired gauges (the
// serial path's kernel probe equivalent). now and fired must be gathered
// by the caller while it holds the shards quiescent.
func (ls *LiveSet) SetGauges(now time.Duration, fired uint64) {
	if ls.m != nil && ls.m.rm != nil {
		ls.m.rm.SimTime.Set(now.Seconds())
		ls.m.rm.EventsFired.Set(float64(fired))
	}
}

// KernelStats merges the per-shard serial kernels' introspection counters
// into one snapshot, one pseudo-shard per decision shard. All shards must
// be quiescent.
func (ls *LiveSet) KernelStats() *simkernel.KernelStats {
	if len(ls.shards) == 1 {
		return ls.shards[0].KernelStats()
	}
	out := &simkernel.KernelStats{Shards: make([]simkernel.ShardStats, len(ls.shards))}
	for i, lv := range ls.shards {
		ss := lv.KernelStats().Shards[0]
		ss.Shard = i
		out.Shards[i] = ss
		out.Events += ss.Events
	}
	return out
}

// Finish drains every shard, settles the fleet to a shared horizon,
// closes the disks, replays any remaining journal, and reconciles the
// merged result — the sharded equivalent of Live.Finish, producing the
// same Result a serial run over the same admission order would. All
// shards must be exclusively owned by the calling goroutine.
func (ls *LiveSet) Finish(name string) (*Result, error) {
	if len(ls.shards) == 1 {
		return ls.shards[0].Finish(name)
	}
	if ls.finished {
		return nil, errors.New("storage: Finish called twice on a LiveSet")
	}
	ls.finished = true
	// Phase one: drain each shard's outstanding work independently. The
	// shards share no disks, so the serial engine's stop time — the instant
	// the last outstanding request completes — is the maximum of the
	// per-shard post-drain clocks.
	for _, lv := range ls.shards {
		if err := lv.DrainOutstanding(); err != nil {
			return nil, err
		}
	}
	var maxNow time.Duration
	for _, lv := range ls.shards {
		if n := lv.Now(); n > maxNow {
			maxNow = n
		}
	}
	end := maxNow + settleTail(ls.cfg.Power)
	// Phase two: settle every shard to the shared horizon, then close the
	// disks (their end-of-run events land in the journals) and merge.
	for _, lv := range ls.shards {
		if err := lv.SettleUntil(end); err != nil {
			return nil, err
		}
	}
	res := &Result{
		Scheduler: name,
		Horizon:   end,
		PerDisk:   make([]diskmodel.Stats, ls.cfg.NumDisks),
	}
	ingested := 0
	var fired uint64
	for i, lv := range ls.shards {
		stats := lv.CloseDisks()
		copy(res.PerDisk[ls.bases[i]:], stats)
		res.Served += lv.Served()
		res.Dropped += lv.Dropped()
		ingested += lv.Ingested()
		fired += lv.Fired()
	}
	if ls.m != nil {
		ls.m.merge(ls.journals, -1)
		res.Response = ls.resp
	} else {
		for _, lv := range ls.shards {
			res.Response.Append(&lv.sys.resp)
		}
	}
	ob := observers{tr: ls.opts.tracer, mon: ls.opts.monitor, acct: ls.opts.acct}
	if ls.m != nil {
		ob.rm = ls.m.rm
	}
	return ob.closeRun(ls.cfg, res, fired, ingested)
}
