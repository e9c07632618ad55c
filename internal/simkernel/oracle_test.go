package simkernel

import (
	"container/heap"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
)

// oracleKernel is the surface the oracle program drives: the Engine under
// test or the heap reference. Events are named by the program's own ids,
// assigned in scheduling order, so equal logs mean equal (at, seq) orders.
type oracleKernel interface {
	Now() time.Duration
	schedule(id int, t time.Duration, fn Event)
	cancel(id int)
	preload(reqs []core.Request, fn func(core.Request, time.Duration))
	Step() bool
	RunUntil(deadline time.Duration) time.Duration
	drain()
}

// engineOracle adapts the one-shard kernel: program steps run on its
// Engine, drains through Sharded.RunFree.
type engineOracle struct {
	*Engine
	se      *Sharded
	handles map[int]Handle
}

func (k *engineOracle) schedule(id int, t time.Duration, fn Event) { k.handles[id] = k.At(t, fn) }
func (k *engineOracle) cancel(id int)                              { k.Cancel(k.handles[id]) }
func (k *engineOracle) preload(reqs []core.Request, fn func(core.Request, time.Duration)) {
	k.Preload(reqs, fn)
}
func (k *engineOracle) drain() { k.se.RunFree() }

// heapKernel is the reference: one binary heap in (at, seq) order, every
// preloaded request pushed as its own event, cancellation by flag.
type heapKernel struct {
	now   time.Duration
	seq   uint64
	h     eventHeap
	items map[int]*eventItem
}

func (k *heapKernel) Now() time.Duration { return k.now }

func (k *heapKernel) push(t time.Duration, fn Event) *eventItem {
	it := &eventItem{at: t, seq: k.seq, fn: fn}
	k.seq++
	heap.Push(&k.h, it)
	return it
}

func (k *heapKernel) schedule(id int, t time.Duration, fn Event) { k.items[id] = k.push(t, fn) }

func (k *heapKernel) cancel(id int) {
	if it := k.items[id]; it != nil && it.index != fired {
		it.cancelled = true
	}
}

func (k *heapKernel) preload(reqs []core.Request, fn func(core.Request, time.Duration)) {
	for _, r := range reqs {
		k.push(r.Arrival, func(now time.Duration) { fn(r, now) })
	}
}

// top returns the earliest live event, discarding cancelled ones.
func (k *heapKernel) top() *eventItem {
	for len(k.h) > 0 {
		if it := k.h[0]; !it.cancelled {
			return it
		}
		heap.Pop(&k.h)
	}
	return nil
}

func (k *heapKernel) Step() bool {
	if k.top() == nil {
		return false
	}
	it := heap.Pop(&k.h).(*eventItem)
	k.now = it.at
	it.fn(it.at)
	return true
}

func (k *heapKernel) RunUntil(deadline time.Duration) time.Duration {
	for it := k.top(); it != nil && it.at <= deadline; it = k.top() {
		k.Step()
	}
	k.now = max(k.now, deadline)
	return k.now
}

func (k *heapKernel) drain() {
	for k.Step() {
	}
}

// oracleGap draws a scheduling delay: same-instant ties, µs-spaced
// service-like gaps and second-scale timers, so the calendar queue sees
// every geometry (slot hits, deep buckets, far-tier migrations).
func oracleGap(rng *rand.Rand) time.Duration {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return time.Duration(rng.Int63n(int64(10 * time.Second)))
	default:
		return time.Duration(rng.Int63n(int64(200 * time.Microsecond)))
	}
}

// oracleProgram drives k through a random mix of At, Cancel and Preload
// calls — callbacks schedule and cancel too — interleaved with Step,
// RunUntil and drains, and returns the log of fired events and clock
// readings.
func oracleProgram(k oracleKernel, seed int64) []string {
	const maxEvents = 4000
	rng := rand.New(rand.NewSource(seed))
	var log []string
	ids := 0
	var schedule func(t time.Duration)
	fire := func(id int) Event {
		return func(now time.Duration) {
			log = append(log, fmt.Sprintf("e%d@%d", id, now))
			for n := rng.Intn(3); n > 0 && ids < maxEvents; n-- {
				schedule(now + oracleGap(rng))
			}
			if rng.Intn(4) == 0 {
				k.cancel(rng.Intn(ids))
			}
		}
	}
	schedule = func(t time.Duration) {
		id := ids
		ids++
		k.schedule(id, t, fire(id))
	}
	deliver := func(r core.Request, now time.Duration) {
		log = append(log, fmt.Sprintf("p%d@%d", r.ID, now))
		if rng.Intn(2) == 0 && ids < maxEvents {
			schedule(now + oracleGap(rng))
		}
	}
	for op := 0; op < 300; op++ {
		switch rng.Intn(6) {
		case 0:
			for n := rng.Intn(8); n > 0; n-- {
				schedule(k.Now() + oracleGap(rng))
			}
		case 1:
			reqs := make([]core.Request, 1+rng.Intn(16))
			for i := range reqs {
				reqs[i] = core.Request{ID: core.RequestID(ids), Arrival: k.Now() + oracleGap(rng)}
				ids++
			}
			if rng.Intn(2) == 0 {
				slices.SortFunc(reqs, func(a, b core.Request) int { return int(a.Arrival - b.Arrival) })
			}
			k.preload(reqs, deliver)
		case 2:
			for n := rng.Intn(10); n > 0 && k.Step(); n-- {
			}
		case 3:
			k.RunUntil(k.Now() + oracleGap(rng))
		case 4:
			k.drain()
		case 5:
			if ids > 0 {
				k.cancel(rng.Intn(ids))
			}
		}
		log = append(log, fmt.Sprintf("now=%d", k.Now()))
	}
	k.drain()
	return append(log, fmt.Sprintf("end=%d", k.Now()))
}

// TestEngineMatchesHeapOracle checks the whole Engine — slot fast path,
// calendar queue, lazily merged preload runs and lazy cancellation — fires
// events in exactly the (at, seq) order of a plain binary-heap kernel,
// across Step, RunUntil and RunFree drains.
func TestEngineMatchesHeapOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		se := NewSharded(1, 1, 1)
		got := oracleProgram(&engineOracle{Engine: se.DiskSim(0), se: se, handles: map[int]Handle{}}, seed)
		want := oracleProgram(&heapKernel{items: map[int]*eventItem{}}, seed)
		if i := firstDiff(got, want); i >= 0 {
			t.Fatalf("seed %d: entry %d: engine logged %s, heap %s", seed, i, entry(got, i), entry(want, i))
		}
	}
}

func firstDiff(a, b []string) int {
	for i := range max(len(a), len(b)) {
		if entry(a, i) != entry(b, i) {
			return i
		}
	}
	return -1
}

func entry(log []string, i int) string {
	if i < len(log) {
		return log[i]
	}
	return "<end>"
}
