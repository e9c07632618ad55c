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
// is split into per-rack shards, each with its own calendar queue and event
// arena, and RunFree drains every shard to empty concurrently with no
// cross-shard ordering at all.
//
// That is sound only for workloads whose shards never interact: disk events
// schedule and cancel events on their own shard only, there are no
// coordinator (cross-disk) events, and result sinks are shard-local with a
// shard-count-invariant aggregation (integer sums, histograms, per-disk
// reductions). Within a shard, events still fire in strict (time, seq)
// order, so each shard's history — and therefore every such aggregate — is
// identical at any shard or worker count. Ordered runs that need one global
// canonical order (traces, response-sample order, cross-disk scheduling)
// use the serial Engine.
type Sharded struct {
	now      time.Duration
	fired    uint64
	running  bool
	workers  int
	numDisks int
	shards   []*shard

	// Wall-clock telemetry (see EnableTelemetry): total drain wall,
	// accumulated on the calling goroutine.
	telemetry bool
	wallNS    int64
}

// shard is one sub-kernel: a calendar queue, a private event arena (the
// generation-counted pool, duplicated per shard so shards never contend on
// a free list) and a shard-local sequence counter and clock.
type shard struct {
	idx       int32
	q         calQueue
	free      []*eventItem
	now       time.Duration
	seq       uint64
	cancelled int
	fired     uint64 // events fired in the current RunFree, folded into the kernel after it
	// slot holds the earliest event scheduled since the last consume while
	// RunFree is draining: self-chaining workloads (a generator tick
	// scheduling the next tick, a service completion starting the next
	// service) usually schedule the very event that fires next, and the
	// slot lets it bypass the calendar queue's push/pop round trip
	// entirely.
	slot *eventItem
	view ShardView

	// Introspection counters (see ShardStats).
	firedTotal uint64 // lifetime events, surviving RunFree's fold-and-reset
	poolBlocks int    // event-arena blocks ever allocated
	slotHits   uint64 // slot fast-path consumes
	telem      *shardTimes
}

// inSlot marks an item held in a shard's fast-path slot: not in either
// calendar tier, not yet fired, still cancellable.
const inSlot = -4

// NewSharded builds a kernel with numShards sub-kernels over numDisks
// disks. workers caps the goroutines RunFree uses; workers <= 0 means
// GOMAXPROCS. Shard counts are clamped to [1, numDisks].
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
	se := &Sharded{workers: workers, numDisks: numDisks}
	se.shards = make([]*shard, numShards)
	for i := range se.shards {
		sh := &shard{idx: int32(i)}
		sh.q.init()
		sh.view = ShardView{se: se, sh: sh}
		se.shards[i] = sh
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

// ShardRange returns the contiguous disk range [base, base+count) owned by
// shard s under the ShardOf striping: every shard owns numDisks/numShards
// disks, with the final shard absorbing any remainder.
func ShardRange(numDisks, numShards, s int) (base, count int) {
	per := numDisks / numShards
	base = s * per
	count = per
	if s == numShards-1 {
		count = numDisks - base
	}
	return base, count
}

// NumShards returns the number of sub-kernels.
func (se *Sharded) NumShards() int { return len(se.shards) }

// DiskSim returns the scheduling surface for a disk: the ShardView of the
// shard that owns it. Views are shared by all disks of a shard.
func (se *Sharded) DiskSim(d core.DiskID) *ShardView {
	return &se.shards[ShardOf(d, se.numDisks, len(se.shards))].view
}

// Fired returns the number of events executed so far across all shards.
func (se *Sharded) Fired() uint64 { return se.fired }

func (sh *shard) alloc() *eventItem {
	if n := len(sh.free); n > 0 {
		it := sh.free[n-1]
		sh.free = sh.free[:n-1]
		return it
	}
	sh.poolBlocks++
	block := make([]eventItem, poolBlock)
	for i := range block {
		block[i].owner = sh.idx
	}
	for i := poolBlock - 1; i > 0; i-- {
		sh.free = append(sh.free, &block[i])
	}
	return &block[0]
}

func (sh *shard) release(it *eventItem) {
	it.gen++
	it.fn = nil
	sh.free = append(sh.free, it)
}

// RunFree drains every shard to empty, shards running concurrently on up to
// workers goroutines. Probes are not supported. Returns the final virtual
// time: the max over shards.
func (se *Sharded) RunFree() time.Duration {
	timed := se.telemetry
	var loop0 []int64
	var start time.Time
	if timed {
		loop0 = make([]int64, len(se.shards))
		for i, sh := range se.shards {
			loop0[i] = sh.telem.loopNS
		}
		start = time.Now()
	}
	se.running = true
	if w := min(se.workers, len(se.shards)); w <= 1 {
		for _, sh := range se.shards {
			if timed {
				sh.runFreeLocalTimed()
			} else {
				sh.runFreeLocal()
			}
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
					if i >= len(se.shards) {
						return
					}
					if timed {
						se.shards[i].runFreeLocalTimed()
					} else {
						se.shards[i].runFreeLocal()
					}
				}
			}()
		}
		wg.Wait()
	}
	se.running = false
	if timed {
		// A shard's stall is the drain wall minus its own loop wall: time it
		// spent finished (or waiting for a worker slot) while the straggler
		// held the drain open.
		wall := int64(time.Since(start))
		se.wallNS += wall
		for i, sh := range se.shards {
			if d := wall - (sh.telem.loopNS - loop0[i]); d > 0 {
				sh.telem.stallNS += d
			}
		}
	}
	for _, sh := range se.shards {
		se.fired += sh.fired
		sh.firedTotal += sh.fired
		sh.fired = 0
		if sh.now > se.now {
			se.now = sh.now
		}
	}
	return se.now
}

// runFreeLocal is the free-running shard loop: the kernel's hottest path.
// Each iteration fires the strict (at, seq) minimum of the slot and the
// queue; the slot hit rate is what makes self-chaining fleet workloads
// cheap, since a hit costs two key compares instead of a queue round trip.
func (sh *shard) runFreeLocal() {
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
		fn(at)
	}
}

// ShardView is the Sim a disk schedules against: its shard's sequence
// counter and queue. Events scheduled before RunFree seed the shard;
// events scheduled from inside a running shard extend it.
type ShardView struct {
	se *Sharded
	sh *shard
}

// Now returns the executing shard's clock while RunFree drains, the
// kernel's clock (the max over shards) otherwise — so disks closed after a
// drain all account up to the same horizon.
func (v *ShardView) Now() time.Duration {
	if v.se.running {
		return v.sh.now
	}
	return v.se.now
}

// At schedules fn on this view's shard at absolute time t.
func (v *ShardView) At(t time.Duration, fn Event) Handle {
	sh := v.sh
	if now := v.Now(); t < now {
		panic(fmt.Errorf("%w: at=%s now=%s", ErrPast, t, now))
	}
	it := sh.alloc()
	it.at, it.seq, it.fn, it.cancelled = t, sh.seq, fn, false
	sh.seq++
	if v.se.running {
		// Fast path: hold the earliest pending schedule in the slot. A
		// later-keyed schedule goes through the queue; an earlier one takes
		// the slot and demotes the previous holder to the queue (the
		// returned handle must stay on the new item).
		s := sh.slot
		if s == nil {
			it.index = inSlot
			sh.slot = it
			return Handle{item: it, gen: it.gen}
		}
		if it.at < s.at {
			it.index = inSlot
			sh.slot = it
			sh.q.Push(s)
			return Handle{item: it, gen: it.gen}
		}
	}
	sh.q.Push(it)
	return Handle{item: it, gen: it.gen}
}

// After schedules fn d after the view's current time.
func (v *ShardView) After(d time.Duration, fn Event) Handle {
	return v.At(v.Now()+d, fn)
}

// Cancel prevents the handled event from firing; same semantics as the
// serial kernel, including stale-handle detection by generation. The
// bookkeeping goes to the shard that owns the item.
func (v *ShardView) Cancel(h Handle) {
	it := h.item
	if it == nil || it.gen != h.gen || it.index == fired || it.cancelled {
		return
	}
	it.cancelled = true
	v.se.shards[it.owner].cancelled++
}

var _ Sim = (*ShardView)(nil)
