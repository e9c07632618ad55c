package storage

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestKernelTelemetryAttribution pins the acceptance bar for the engine
// introspection work: with telemetry armed on a 4-shard fleet, the named
// wall-clock buckets (execute, queue ops, stall) account for at least 95%
// of shards×wall — the residual is only the bucketing arithmetic itself.
func TestKernelTelemetryAttribution(t *testing.T) {
	cfg := smallFleetConfig()
	cfg.NumDisks = 480
	cfg.RequestsPerDisk = 50
	cfg.Shards = 4
	cfg.Workers = 4
	cfg.Telemetry = true
	res, err := RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ks := res.Kernel
	if ks == nil || !ks.Timed {
		t.Fatalf("telemetry armed but result carries no timed snapshot: %+v", ks)
	}
	if len(ks.Shards) != 4 {
		t.Fatalf("snapshot has %d shards, want 4", len(ks.Shards))
	}
	var events uint64
	for _, s := range ks.Shards {
		events += s.Events
	}
	if events != ks.Events || ks.Events != res.Events {
		t.Fatalf("event accounting: shards %d vs global %d (run %d)",
			events, ks.Events, res.Events)
	}
	exec, queue, stall, cov := ks.Attribution()
	t.Logf("exec=%dns queue=%dns stall=%dns wall=%dns coverage=%.4f straggler=%d",
		exec, queue, stall, ks.WallNS, cov, ks.Straggler())
	if cov < 0.95 {
		t.Fatalf("attribution coverage %.4f below 0.95 (exec=%d queue=%d stall=%d wall=%d×%d)",
			cov, exec, queue, stall, ks.WallNS, len(ks.Shards))
	}
	if cov > 1.10 {
		t.Fatalf("attribution coverage %.4f implausibly above 1", cov)
	}
	if st := ks.Straggler(); st < 0 || st >= 4 {
		t.Fatalf("straggler index %d out of range", st)
	}
}

// TestFleetTelemetryOneShard pins that FleetConfig.Telemetry arms the
// wall-clock attribution at every shard count, one shard included.
func TestFleetTelemetryOneShard(t *testing.T) {
	t.Parallel()
	cfg := smallFleetConfig()
	cfg.Telemetry = true
	res, err := RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ks := res.Kernel
	if ks == nil || !ks.Timed || len(ks.Shards) != 1 {
		t.Fatalf("Shards=0 with telemetry armed: want one timed shard, got %+v", ks)
	}
	if _, _, _, cov := ks.Attribution(); cov <= 0 {
		t.Fatalf("attribution coverage %v, want > 0", cov)
	}
}

// TestFleetKernelCountersAlwaysOn pins that the structural counters ride
// along on every run — telemetry off, wall-clock buckets empty — at one
// shard and at four.
func TestFleetKernelCountersAlwaysOn(t *testing.T) {
	t.Parallel()
	for _, shards := range []int{0, 4} {
		cfg := smallFleetConfig()
		cfg.Shards = shards
		res, err := RunFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ks := res.Kernel
		if ks == nil {
			t.Fatalf("shards=%d: no kernel snapshot on result", shards)
		}
		if ks.Timed || ks.WallNS != 0 {
			t.Fatalf("shards=%d: telemetry off but snapshot timed (wall=%d)", shards, ks.WallNS)
		}
		if exec, queue, stall, _ := ks.Attribution(); exec+queue+stall != 0 {
			t.Fatalf("shards=%d: wall-clock buckets populated with telemetry off", shards)
		}
		s := ks.Shards[0]
		if shards == 0 {
			if len(ks.Shards) != 1 || s.QueueHighWater == 0 || s.PoolHighWater == 0 {
				t.Fatalf("one-shard counters incomplete: %+v", s)
			}
		} else if len(ks.Shards) != shards || s.Pushes == 0 || s.Pops == 0 {
			t.Fatalf("sharded counters dead: %+v", s)
		}
		if res.Deterministic().Kernel != nil {
			t.Fatal("Deterministic() must drop the kernel snapshot")
		}
	}
}

// TestExportKernelMetrics pins the esched_kernel_* surface: families appear
// per shard, timing families only when the snapshot is timed, and repeated
// exports reconcile instead of accumulating.
func TestExportKernelMetrics(t *testing.T) {
	t.Parallel()
	cfg := smallFleetConfig()
	cfg.Shards = 4
	cfg.Telemetry = true
	res, err := RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := obs.NewCollector()
	ExportKernelMetrics(c, res.Kernel)
	out := c.String()
	for _, want := range []string{
		`esched_kernel_events_total{shard="0"}`,
		`esched_kernel_events_total{shard="3"}`,
		`esched_kernel_queue_ops_total{op="push",shard="0"}`,
		`esched_kernel_queue_ops_total{op="pop",shard="0"}`,
		"esched_kernel_queue_rebuilds_total",
		"esched_kernel_queue_recalibrations_total",
		"esched_kernel_queue_migrations_total",
		"esched_kernel_far_occupancy_peak",
		"esched_kernel_queue_occupancy_peak",
		"esched_kernel_pool_peak_events",
		"esched_kernel_slot_hits_total",
		`esched_kernel_exec_seconds_total{shard="0"}`,
		"esched_kernel_stall_seconds_total",
		"esched_kernel_wall_seconds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %s", want)
		}
	}
	ExportKernelMetrics(c, res.Kernel)
	if again := c.String(); again != out {
		t.Fatal("re-export changed the rendered metrics (accumulated instead of reconciled)")
	}

	// Untimed snapshot: counters only, no timing families.
	cfg2 := smallFleetConfig()
	cfg2.Shards = 2
	res2, err := RunFleet(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	c2 := obs.NewCollector()
	ExportKernelMetrics(c2, res2.Kernel)
	out2 := c2.String()
	if strings.Contains(out2, "esched_kernel_exec_seconds_total") ||
		strings.Contains(out2, "esched_kernel_wall_seconds") {
		t.Fatal("untimed export advertises wall-clock families")
	}
	if !strings.Contains(out2, `esched_kernel_events_total{shard="1"}`) {
		t.Fatal("untimed export missing structural counters")
	}
}
