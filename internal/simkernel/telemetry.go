package simkernel

import "time"

// ShardStats is one Engine's introspection counters. The structural
// counters (queue ops, rebuilds, slot hits, pool growth) are always on —
// each is a plain field increment on a path that already touches the same
// cache line — while the wall-clock buckets (ExecNS/QueueNS/StallNS) are
// populated only by RunFree drains after EnableTelemetry. A lone Engine
// reports itself as shard 0 of an untimed snapshot.
type ShardStats struct {
	Shard  int    `json:"shard"`
	Events uint64 `json:"events"`

	// Calendar-queue meters.
	Pushes         uint64 `json:"queue_pushes"`
	Pops           uint64 `json:"queue_pops"`
	Rebuilds       uint64 `json:"queue_rebuilds"`
	Recalibrations uint64 `json:"queue_recalibrations"`
	Migrations     uint64 `json:"queue_migrations"`
	FarHighWater   int    `json:"far_high_water"`
	QueueHighWater int    `json:"queue_high_water"`

	// Event-arena high-water mark: pooled records ever allocated.
	PoolHighWater int `json:"pool_high_water"`

	// Slot fast-path consumes.
	SlotHits uint64 `json:"slot_hits"`

	// Wall-clock attribution (telemetry mode only): time spent executing
	// event callbacks, time spent in queue operations (pop/peek/reap), and
	// time stalled — idle while a straggler shard held the drain open.
	ExecNS  int64 `json:"exec_ns"`
	QueueNS int64 `json:"queue_ns"`
	StallNS int64 `json:"stall_ns"`
}

// BusyNS returns the shard's attributed busy time.
func (s *ShardStats) BusyNS() int64 { return s.ExecNS + s.QueueNS }

// KernelStats is a deterministic snapshot of a kernel's telemetry: shards
// appear in shard order and every field is derived from per-shard counters
// aggregated after the drain, so two identical runs snapshot identically
// (wall-clock fields aside). Per-shard events sum to Events.
type KernelStats struct {
	Shards []ShardStats `json:"shards"`
	// WallNS is the wall-clock time of telemetry-armed RunFree drains.
	WallNS int64  `json:"wall_ns"`
	Events uint64 `json:"events"`
	Timed  bool   `json:"timed"`
}

// Attribution sums the named wall-clock buckets across shards and returns
// the fraction of shards×wall they cover, along with the per-bucket totals.
// Zero wall (telemetry off) reports zero coverage.
func (ks *KernelStats) Attribution() (exec, queue, stall int64, coverage float64) {
	for i := range ks.Shards {
		s := &ks.Shards[i]
		exec += s.ExecNS
		queue += s.QueueNS
		stall += s.StallNS
	}
	if total := ks.WallNS * int64(len(ks.Shards)); total > 0 {
		coverage = float64(exec+queue+stall) / float64(total)
	}
	return exec, queue, stall, coverage
}

// Straggler returns the index of the shard with the most attributed busy
// time — the rack holding the drain open — or -1 for an empty snapshot.
func (ks *KernelStats) Straggler() int {
	best, bestNS := -1, int64(-1)
	for i := range ks.Shards {
		if b := ks.Shards[i].BusyNS(); b > bestNS {
			best, bestNS = i, b
		}
	}
	return best
}

// engineTimes is an engine's wall-clock meter, filled by timed drains.
type engineTimes struct {
	execNS  int64
	queueNS int64
	stallNS int64
	loopNS  int64 // the engine's own drain wall, used to derive stall
}

// stats snapshots one engine's counters as shard index shard.
func (e *Engine) stats(shard int) ShardStats {
	return ShardStats{
		Shard:          shard,
		Events:         e.fired,
		Pushes:         e.q.pushes,
		Pops:           e.q.pops,
		Rebuilds:       e.q.rebuilds,
		Recalibrations: e.q.recals,
		Migrations:     e.q.migrations,
		FarHighWater:   e.q.farHW,
		QueueHighWater: e.q.nHW,
		PoolHighWater:  e.poolBlocks * poolBlock,
		SlotHits:       e.slotHits,
		ExecNS:         e.times.execNS,
		QueueNS:        e.times.queueNS,
		StallNS:        e.times.stallNS,
	}
}

// Telemetry snapshots the engine's counters as a one-shard, untimed
// KernelStats.
func (e *Engine) Telemetry() *KernelStats {
	return &KernelStats{Shards: []ShardStats{e.stats(0)}, Events: e.fired}
}

// drainTimed runs the engine to empty like a plain Step loop, bucketing its
// wall time by timestamp chaining: a probe wrapped around the installed one
// splits every Step where the clock advances, so the time before it (queue
// work) and after it (the callback) tile the loop's wall up to the bucketing
// arithmetic itself.
func (e *Engine) drainTimed() {
	tm := &e.times
	start := time.Now()
	t := start
	probe := e.probe
	e.probe = func(now time.Duration, fired uint64) {
		tq := time.Now()
		tm.queueNS += int64(tq.Sub(t))
		t = tq
		if probe != nil {
			probe(now, fired)
		}
	}
	for e.Step() {
		now := time.Now()
		tm.execNS += int64(now.Sub(t))
		t = now
	}
	end := time.Now()
	tm.queueNS += int64(end.Sub(t))
	tm.loopNS += int64(end.Sub(start))
	e.probe = probe
}
