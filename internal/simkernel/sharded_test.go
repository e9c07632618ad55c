package simkernel

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/placement"
)

// chainWorkload is the disk-model event shape, one independent chain per
// disk: every event logs itself to its disk's own log, may cancel the
// disk's armed timer, may re-arm it, and schedules a follow-up at a
// deterministic pseudo-random delay (quantized so same-instant ties are
// common). All state is per disk, so the workload is shard-local and runs
// unchanged on one Engine or under RunFree.
type chainWorkload struct {
	sims   []*Engine
	logs   [][]string
	timers []Handle
}

// chainEvents bounds each disk's chain: a disk stops scheduling once it
// has logged this many events.
const chainEvents = 150

func newChainWorkload(sims []*Engine) *chainWorkload {
	w := &chainWorkload{sims: sims, logs: make([][]string, len(sims)), timers: make([]Handle, len(sims))}
	for d := range sims {
		sims[d].At(time.Duration(d%3)*10*time.Microsecond, w.poke(d))
	}
	return w
}

func (w *chainWorkload) poke(d int) Event {
	return func(now time.Duration) {
		c := len(w.logs[d]) + 1
		w.logs[d] = append(w.logs[d], fmt.Sprintf("c%d t%d", c, now))
		r := uint64(d*2654435761) ^ uint64(c*40503) // deterministic mix
		if !w.timers[d].Cancelled() && r%3 == 0 {
			w.sims[d].Cancel(w.timers[d])
		}
		if c >= chainEvents {
			return
		}
		delay := time.Duration(1+r%7) * 10 * time.Microsecond
		w.sims[d].After(delay, w.poke(d))
		if r%5 == 1 {
			w.timers[d] = w.sims[d].After(delay*3, w.poke(d))
		}
	}
}

// serialChains runs the chain workload on one Engine.
func serialChains(numDisks int) (*chainWorkload, *Engine) {
	eng := &Engine{}
	sims := make([]*Engine, numDisks)
	for d := range sims {
		sims[d] = eng
	}
	w := newChainWorkload(sims)
	eng.Run()
	return w, eng
}

// shardedChains seeds the chain workload on a sharded kernel; the caller
// arms telemetry if wanted and drains it with RunFree.
func shardedChains(numDisks, shards, workers int) (*chainWorkload, *Sharded) {
	se := NewSharded(numDisks, shards, workers)
	sims := make([]*Engine, numDisks)
	for d := range sims {
		sims[d] = se.DiskSim(core.DiskID(d))
	}
	return newChainWorkload(sims), se
}

// TestShardedHandleSemantics pins the pool guarantees across RunFree
// drains: cancel is effective, handles to fired events are stale, and
// record reuse cannot resurrect an old handle.
func TestShardedHandleSemantics(t *testing.T) {
	se := NewSharded(4, 2, 1)
	v := se.DiskSim(0)

	var firedLog []string
	ha := v.After(time.Millisecond, func(time.Duration) { firedLog = append(firedLog, "a") })
	hb := v.After(2*time.Millisecond, func(time.Duration) { firedLog = append(firedLog, "b") })
	if ha.Cancelled() || hb.Cancelled() {
		t.Fatal("fresh handles must be live")
	}
	v.Cancel(hb)
	if !hb.Cancelled() {
		t.Fatal("cancelled handle must report Cancelled")
	}
	if now := se.RunFree(); now != time.Millisecond {
		t.Fatalf("RunFree ended at %v, want 1ms (the cancelled event must not advance the clock)", now)
	}
	if got := fmt.Sprint(firedLog); got != "[a]" {
		t.Fatalf("fired %v, want [a]", firedLog)
	}
	if !ha.Cancelled() {
		t.Fatal("handle to a fired event must be stale")
	}
	// Reuse: the records behind ha/hb return to the shard's pool; new events
	// reuse them with a bumped generation, so the old handles stay dead and
	// cancelling them must not touch the new events.
	hc := v.After(time.Millisecond, func(time.Duration) { firedLog = append(firedLog, "c") })
	v.Cancel(ha)
	v.Cancel(hb)
	if hc.Cancelled() {
		t.Fatal("stale cancel leaked onto a reused record")
	}
	if now := se.RunFree(); now != 2*time.Millisecond {
		t.Fatalf("second RunFree ended at %v, want 2ms", now)
	}
	if got := fmt.Sprint(firedLog); got != "[a c]" {
		t.Fatalf("fired %v, want [a c]", firedLog)
	}
	if se.Fired() != 2 {
		t.Fatalf("Fired = %d, want 2 (cancelled events must not count)", se.Fired())
	}
}

// TestShardedRunFree pins the free-running mode's shard-count invariance:
// self-scheduling chains with shard-local sinks yield identical per-disk
// sums, event counts, and final clocks at every shard count.
func TestShardedRunFree(t *testing.T) {
	const numDisks = 24
	run := func(shards, workers int) ([]int, uint64, time.Duration) {
		se := NewSharded(numDisks, shards, workers)
		sums := make([]int, numDisks)
		for d := 0; d < numDisks; d++ {
			v := se.DiskSim(core.DiskID(d))
			var chain func(left int) Event
			chain = func(left int) Event {
				return func(now time.Duration) {
					sums[d]++ // shard-local: only disk d's shard touches sums[d]
					if left > 0 {
						v.After(time.Duration(1+(sums[d]*7)%13)*time.Microsecond, chain(left-1))
					}
				}
			}
			v.At(time.Duration(d)*time.Microsecond, chain(200))
		}
		now := se.RunFree()
		return sums, se.Fired(), now
	}
	refSums, refFired, refNow := run(1, 1)
	for _, shards := range []int{2, 4, 8, 24} {
		sums, fired, now := run(shards, 4)
		if !reflect.DeepEqual(sums, refSums) || fired != refFired || now != refNow {
			t.Fatalf("shards=%d: (fired=%d now=%v) diverges from serial (fired=%d now=%v)",
				shards, fired, now, refFired, refNow)
		}
	}
}

// TestShardOfMatchesRackStriping pins ShardOf to the same contiguous
// striping as placement.RackOf, so a rack never straddles a shard boundary
// when the shard count divides the rack count.
func TestShardOfMatchesRackStriping(t *testing.T) {
	for _, tc := range []struct{ disks, groups int }{
		{100, 4}, {100, 7}, {13, 13}, {13, 1}, {100000, 1000},
	} {
		for d := 0; d < tc.disks; d++ {
			got := ShardOf(core.DiskID(d), tc.disks, tc.groups)
			want := placement.RackOf(core.DiskID(d), tc.disks, tc.groups)
			if got != want {
				t.Fatalf("ShardOf(%d,%d,%d) = %d, RackOf = %d", d, tc.disks, tc.groups, got, want)
			}
		}
	}
}

// TestFreeRunSlotHandles pins the free-running fast path's handle
// identity: when a newly scheduled event displaces the slot holder, the
// returned handle must target the new event, not the demoted one —
// cancelling it must suppress exactly the new event. A handle bound to
// the wrong item turns every later Cancel into a misdirected cancel of a
// live event (lost completions at fleet scale).
func TestFreeRunSlotHandles(t *testing.T) {
	se := NewSharded(2, 2, 1)
	v := se.DiskSim(0)
	var log []string
	v.At(time.Microsecond, func(now time.Duration) {
		// A (later) takes the empty slot; B (earlier) must displace it.
		ha := v.At(now+10*time.Microsecond, func(time.Duration) { log = append(log, "a") })
		hb := v.At(now+5*time.Microsecond, func(time.Duration) { log = append(log, "b") })
		v.Cancel(hb)
		if ha.Cancelled() {
			t.Error("cancelling the displacing event's handle hit the demoted one")
		}
	})
	se.RunFree()
	if got := fmt.Sprint(log); got != "[a]" {
		t.Fatalf("fired %v, want [a]: slot swap returned a handle to the wrong event", log)
	}
	if se.Fired() != 2 {
		t.Fatalf("Fired = %d, want 2", se.Fired())
	}
}
