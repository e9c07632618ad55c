package simkernel

import "time"

// ShardStats is one sub-kernel's introspection counters. The structural
// counters (queue ops, rebuilds, slot hits, pool growth) are always on —
// each is a plain field increment on a path that already touches the same
// cache line — while the wall-clock buckets (ExecNS/QueueNS/StallNS) are
// populated only after EnableTelemetry, which swaps the drain loops for
// timestamp-chaining variants. A serial Engine reports itself as a single
// pseudo-shard with the calendar-specific fields zero.
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

	// Free-running slot fast-path hits.
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

// shardTimes is the opt-in wall-clock meter attached to a shard by
// EnableTelemetry.
type shardTimes struct {
	execNS  int64
	queueNS int64
	stallNS int64
	loopNS  int64 // this shard's loop wall, used to derive stall
}

// EnableTelemetry arms wall-clock attribution: subsequent RunFree drains
// run through a timestamp-chaining loop that buckets every nanosecond into
// execute/queue/stall. The structural counters
// are always on; this only adds the timing. Costs two clock reads per event
// while enabled — leave it off on throughput-critical runs.
func (se *Sharded) EnableTelemetry() {
	for _, sh := range se.shards {
		if sh.telem == nil {
			sh.telem = &shardTimes{}
		}
	}
	se.telemetry = true
}

// Telemetry snapshots the kernel's per-shard counters in shard order. Call
// it between drains (it reads shard state the drain loops write).
func (se *Sharded) Telemetry() *KernelStats {
	ks := &KernelStats{
		Shards: make([]ShardStats, len(se.shards)),
		WallNS: se.wallNS,
		Events: se.fired,
		Timed:  se.telemetry,
	}
	for i, sh := range se.shards {
		st := &ks.Shards[i]
		st.Shard = i
		st.Events = sh.firedTotal
		st.Pushes = sh.q.pushes
		st.Pops = sh.q.pops
		st.Rebuilds = sh.q.rebuilds
		st.Recalibrations = sh.q.recals
		st.Migrations = sh.q.migrations
		st.FarHighWater = sh.q.farHW
		st.QueueHighWater = sh.q.nHW
		st.PoolHighWater = sh.poolBlocks * poolBlock
		st.SlotHits = sh.slotHits
		if sh.telem != nil {
			st.ExecNS = sh.telem.execNS
			st.QueueNS = sh.telem.queueNS
			st.StallNS = sh.telem.stallNS
		}
	}
	return ks
}

// Telemetry snapshots the serial engine's counters as a single pseudo-shard.
// The heap path has no calendar meters; events, queue high-water and the
// pool high-water are the introspectable state.
func (e *Engine) Telemetry() *KernelStats {
	return &KernelStats{
		Shards: []ShardStats{{
			Events:         e.fired,
			QueueHighWater: e.queueHW,
			PoolHighWater:  e.poolBlocks * poolBlock,
		}},
		Events: e.fired,
	}
}

// runFreeLocalTimed is runFreeLocal with timestamp chaining: consecutive
// clock reads bracket the queue operation and the callback of every
// iteration, so queueNS+execNS equals the loop's wall minus only the
// bucketing arithmetic itself.
func (sh *shard) runFreeLocalTimed() {
	tm := sh.telem
	start := time.Now()
	t := start
	for {
		it := sh.slot
		if it != nil {
			if m := sh.q.Peek(); m != nil && (m.at < it.at || (m.at == it.at && m.seq < it.seq)) {
				it = sh.q.Pop()
			} else {
				sh.slot = nil
				it.index = fired
				sh.slotHits++
			}
		} else if it = sh.q.Pop(); it == nil {
			now := time.Now()
			tm.queueNS += int64(now.Sub(t))
			tm.loopNS += int64(now.Sub(start))
			return
		}
		if it.cancelled {
			sh.cancelled--
			sh.release(it)
			continue
		}
		at, fn := it.at, it.fn
		sh.now = at
		sh.fired++
		sh.release(it)
		tq := time.Now()
		tm.queueNS += int64(tq.Sub(t))
		fn(at)
		t = time.Now()
		tm.execNS += int64(t.Sub(tq))
	}
}
