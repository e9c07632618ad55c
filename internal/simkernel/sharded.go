package simkernel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Sharded is the fleet's free-running parallel kernel: the disk population
// is split into per-rack shards, each an Engine of its own, and RunFree
// drains every shard to empty concurrently with no cross-shard ordering at
// all.
//
// That is sound only for workloads whose shards never interact: disk events
// schedule and cancel events on their own shard only, there are no
// coordinator (cross-disk) events, and result sinks are shard-local with a
// shard-count-invariant aggregation (integer sums, histograms, per-disk
// reductions). Within a shard, events still fire in strict (time, seq)
// order, so each shard's history — and therefore every such aggregate — is
// identical at any shard or worker count. Ordered runs that need one global
// canonical order (traces, response-sample order, cross-disk scheduling)
// use one Engine.
type Sharded struct {
	engines  []*Engine
	workers  int
	numDisks int

	// Wall-clock telemetry (see EnableTelemetry): total drain wall,
	// accumulated on the calling goroutine.
	telemetry bool
	wallNS    int64
}

// NewSharded builds a kernel with numShards engines over numDisks disks.
// workers caps the goroutines RunFree uses; workers <= 0 means GOMAXPROCS.
// Shard counts are clamped to [1, numDisks].
func NewSharded(numDisks, numShards, workers int) *Sharded {
	if numDisks < 1 {
		panic(fmt.Sprintf("simkernel: NewSharded with %d disks", numDisks))
	}
	if numShards < 1 {
		numShards = 1
	}
	if numShards > numDisks {
		numShards = numDisks
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	se := &Sharded{workers: workers, numDisks: numDisks, engines: make([]*Engine, numShards)}
	for i := range se.engines {
		se.engines[i] = &Engine{}
	}
	return se
}

// ShardOf returns the shard owning a disk: the same contiguous striping as
// placement.RackOf, so rack topology maps onto shards with rack r's disks
// never straddling a shard boundary when the rack count divides evenly.
func ShardOf(d core.DiskID, numDisks, numShards int) int {
	per := numDisks / numShards
	s := int(d) / per
	if s >= numShards {
		s = numShards - 1
	}
	return s
}

// NumShards returns the number of engines.
func (se *Sharded) NumShards() int { return len(se.engines) }

// DiskSim returns the Engine of the shard that owns a disk. All disks of a
// shard share it.
func (se *Sharded) DiskSim(d core.DiskID) *Engine {
	return se.engines[ShardOf(d, se.numDisks, len(se.engines))]
}

// Fired returns the number of events executed so far across all shards.
func (se *Sharded) Fired() uint64 {
	var n uint64
	for _, e := range se.engines {
		n += e.fired
	}
	return n
}

// EnableTelemetry arms wall-clock attribution: subsequent RunFree drains
// bucket every nanosecond of each engine's drain into execute/queue/stall.
// The structural counters are always on; this only adds the timing. Costs
// two clock reads per event while enabled — leave it off on
// throughput-critical runs.
func (se *Sharded) EnableTelemetry() { se.telemetry = true }

// RunFree drains every shard to empty, shards running concurrently on up to
// workers goroutines. Returns the horizon, the latest clock over shards, and
// advances every engine's clock to it, so disks closed after a drain all
// account up to the same time.
func (se *Sharded) RunFree() time.Duration {
	var loop0 []int64
	var start time.Time
	if se.telemetry {
		loop0 = make([]int64, len(se.engines))
		for i, e := range se.engines {
			loop0[i] = e.times.loopNS
		}
		start = time.Now()
	}
	drain := func(e *Engine) {
		if se.telemetry {
			e.drainTimed()
		} else {
			for e.Step() {
			}
		}
	}
	if w := min(se.workers, len(se.engines)); w <= 1 {
		for _, e := range se.engines {
			drain(e)
		}
	} else {
		var next atomic.Int32
		var wg sync.WaitGroup
		wg.Add(w)
		for i := 0; i < w; i++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(se.engines) {
						return
					}
					drain(se.engines[i])
				}
			}()
		}
		wg.Wait()
	}
	if se.telemetry {
		// An engine's stall is the drain wall minus its own loop wall: time
		// it spent finished (or waiting for a worker) while the straggler
		// held the drain open.
		wall := int64(time.Since(start))
		se.wallNS += wall
		for i, e := range se.engines {
			if d := wall - (e.times.loopNS - loop0[i]); d > 0 {
				e.times.stallNS += d
			}
		}
	}
	var horizon time.Duration
	for _, e := range se.engines {
		horizon = max(horizon, e.now)
	}
	for _, e := range se.engines {
		e.now = horizon
	}
	return horizon
}

// Telemetry snapshots every engine's counters in shard order. Call it
// between drains (it reads state the drains write).
func (se *Sharded) Telemetry() *KernelStats {
	ks := &KernelStats{Shards: make([]ShardStats, len(se.engines)), WallNS: se.wallNS, Timed: se.telemetry}
	for i, e := range se.engines {
		ks.Shards[i] = e.stats(i)
		ks.Events += e.fired
	}
	return ks
}
