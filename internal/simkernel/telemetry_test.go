package simkernel

import (
	"reflect"
	"testing"
)

// TestEngineTelemetry pins a lone Engine's one-shard snapshot: event count
// matches Fired, the queue and pool high-water marks are live, and the
// snapshot is untimed.
func TestEngineTelemetry(t *testing.T) {
	_, eng := serialChains(8)
	ks := eng.Telemetry()
	if len(ks.Shards) != 1 {
		t.Fatalf("serial engine reports %d shards, want 1", len(ks.Shards))
	}
	s := ks.Shards[0]
	if s.Events != eng.Fired() || ks.Events != eng.Fired() {
		t.Fatalf("events %d/%d, want %d", s.Events, ks.Events, eng.Fired())
	}
	if s.QueueHighWater <= 0 || s.PoolHighWater <= 0 {
		t.Fatalf("high-water marks not recorded: queue=%d pool=%d",
			s.QueueHighWater, s.PoolHighWater)
	}
	if s.PoolHighWater%poolBlock != 0 {
		t.Fatalf("pool high-water %d not a multiple of block size %d",
			s.PoolHighWater, poolBlock)
	}
	if ks.Timed {
		t.Fatal("serial snapshot must be untimed")
	}
	if _, _, _, cov := ks.Attribution(); cov != 0 {
		t.Fatalf("untimed snapshot reports coverage %v", cov)
	}
}

// TestShardedTelemetryCounters pins the structural counters on RunFree:
// per-shard events sum to the global count, queue pushes cover pops, slot
// hits are recorded, timed attribution covers the drain, and arming
// telemetry does not perturb any disk's execution order.
func TestShardedTelemetryCounters(t *testing.T) {
	const numDisks = 16
	ref, eng := serialChains(numDisks)

	w, se := shardedChains(numDisks, 4, 4)
	se.EnableTelemetry()
	se.RunFree()
	if !reflect.DeepEqual(w.logs, ref.logs) {
		t.Fatal("telemetry-armed RunFree diverges from the serial per-disk logs")
	}
	if se.Fired() != eng.Fired() {
		t.Fatalf("Fired = %d, serial %d", se.Fired(), eng.Fired())
	}

	ks := se.Telemetry()
	if len(ks.Shards) != 4 {
		t.Fatalf("snapshot has %d shards, want 4", len(ks.Shards))
	}
	var events, pushes, pops, slotHits uint64
	for i, s := range ks.Shards {
		if s.Shard != i {
			t.Fatalf("shard %d labelled %d", i, s.Shard)
		}
		if s.Rebuilds == 0 {
			t.Fatalf("shard %d recorded no calendar rebuilds (init counts one)", i)
		}
		if s.Pushes < s.Pops {
			t.Fatalf("shard %d popped %d of %d pushes", i, s.Pops, s.Pushes)
		}
		events += s.Events
		pushes += s.Pushes
		pops += s.Pops
		slotHits += s.SlotHits
	}
	if events != se.Fired() || ks.Events != se.Fired() {
		t.Fatalf("per-shard events %d, snapshot %d, global %d", events, ks.Events, se.Fired())
	}
	if pushes == 0 || pops == 0 || slotHits == 0 {
		t.Fatalf("structural counters dead: pushes=%d pops=%d slot hits=%d", pushes, pops, slotHits)
	}
	if !ks.Timed || ks.WallNS <= 0 {
		t.Fatalf("telemetry armed but snapshot untimed (wall=%d)", ks.WallNS)
	}
	if got := ks.Straggler(); got < 0 || got >= 4 {
		t.Fatalf("straggler index %d out of range", got)
	}
	exec, queue, stall, cov := ks.Attribution()
	if exec <= 0 {
		t.Fatalf("no exec time attributed (exec=%d queue=%d stall=%d)", exec, queue, stall)
	}
	if cov <= 0 || cov > 1.10 {
		t.Fatalf("attribution coverage %.3f outside (0, 1.1]", cov)
	}
}

// TestTelemetryDeterministicSnapshot pins that two identical runs produce
// identical structural counters (wall-clock fields aside).
func TestTelemetryDeterministicSnapshot(t *testing.T) {
	run := func() *KernelStats {
		_, se := shardedChains(12, 4, 4)
		se.EnableTelemetry()
		se.RunFree()
		ks := se.Telemetry()
		ks.WallNS = 0
		for i := range ks.Shards {
			ks.Shards[i].ExecNS = 0
			ks.Shards[i].QueueNS = 0
			ks.Shards[i].StallNS = 0
		}
		return ks
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatalf("structural counters diverged between identical runs:\n%+v\nvs\n%+v", a, b)
	}
}
