package storage

import (
	"strconv"

	"repro/internal/obs"
	"repro/internal/simkernel"
)

// ExportKernelMetrics reconciles a kernel-introspection snapshot into the
// collector as the esched_kernel_* families, one series per shard. Values
// are reconciled (overwritten, not added), so a live daemon can re-export
// on every snapshot and the families always reflect the latest counters.
// The wall-clock families are emitted only when the snapshot was taken with
// telemetry armed, so a counters-only export never advertises empty timing.
func ExportKernelMetrics(c *obs.Collector, ks *simkernel.KernelStats) {
	if c == nil || ks == nil {
		return
	}
	for i := range ks.Shards {
		s := &ks.Shards[i]
		l := obs.Label{Key: "shard", Value: strconv.Itoa(s.Shard)}
		c.Counter("esched_kernel_events_total",
			"Events executed per kernel shard.", l).Reconcile(float64(s.Events))
		c.Counter("esched_kernel_queue_ops_total",
			"Calendar-queue operations per shard by kind.",
			l, obs.Label{Key: "op", Value: "push"}).Reconcile(float64(s.Pushes))
		c.Counter("esched_kernel_queue_ops_total",
			"Calendar-queue operations per shard by kind.",
			l, obs.Label{Key: "op", Value: "pop"}).Reconcile(float64(s.Pops))
		c.Counter("esched_kernel_queue_rebuilds_total",
			"Calendar-queue geometry rebuilds per shard (all causes).", l).Reconcile(float64(s.Rebuilds))
		c.Counter("esched_kernel_queue_recalibrations_total",
			"Cost-triggered calendar-width recalibrations per shard.", l).Reconcile(float64(s.Recalibrations))
		c.Counter("esched_kernel_queue_migrations_total",
			"Far-tier admission passes per shard.", l).Reconcile(float64(s.Migrations))
		c.Gauge("esched_kernel_far_occupancy_peak",
			"Peak far-tier population per shard.", l).Set(float64(s.FarHighWater))
		c.Gauge("esched_kernel_queue_occupancy_peak",
			"Peak total queued events per shard.", l).Set(float64(s.QueueHighWater))
		c.Gauge("esched_kernel_pool_peak_events",
			"Event-arena high-water mark per shard (pooled records allocated).", l).Set(float64(s.PoolHighWater))
		c.Counter("esched_kernel_slot_hits_total",
			"Free-running slot fast-path consumes per shard.", l).Reconcile(float64(s.SlotHits))
		if ks.Timed {
			c.Counter("esched_kernel_exec_seconds_total",
				"Wall-clock seconds executing event callbacks per shard.", l).Reconcile(float64(s.ExecNS) / 1e9)
			c.Counter("esched_kernel_queue_seconds_total",
				"Wall-clock seconds in queue operations per shard.", l).Reconcile(float64(s.QueueNS) / 1e9)
			c.Counter("esched_kernel_stall_seconds_total",
				"Wall-clock seconds stalled on sync barriers or stragglers per shard.", l).Reconcile(float64(s.StallNS) / 1e9)
		}
	}
	if ks.Timed {
		c.Gauge("esched_kernel_wall_seconds",
			"Wall-clock seconds of telemetry-armed kernel drains.").Set(float64(ks.WallNS) / 1e9)
	}
}
