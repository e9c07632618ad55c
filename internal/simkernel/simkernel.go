// Package simkernel provides a deterministic discrete-event simulation
// kernel: an Engine holds a virtual clock and a calendar queue of pending
// events, and Sharded runs one Engine per group of disks in parallel.
//
// It replaces the role OMNeT++ plays in the paper's evaluation (Section 4).
// Events fire in strict (time, scheduling-order) order: those scheduled for
// the same instant fire in FIFO order of scheduling, which keeps runs
// bit-for-bit reproducible for a fixed seed.
package simkernel

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
)

// Event is a callback executed at a virtual time.
type Event func(now time.Duration)

// Handle identifies a scheduled event so it can be cancelled. Handles carry
// the item's generation at scheduling time: fired items return to the
// engine's free list and are reused by later At calls, so a stale handle is
// detected by a generation mismatch rather than a dangling pointer.
type Handle struct {
	item *eventItem
	gen  uint64
}

// Cancelled reports whether the handle's event has been cancelled or already
// fired. A zero Handle reports true.
func (h Handle) Cancelled() bool {
	return h.item == nil || h.item.gen != h.gen || h.item.cancelled || h.item.index == fired
}

type eventItem struct {
	at        time.Duration
	seq       uint64
	gen       uint64
	fn        Event
	next      *eventItem // calendar bucket or far-tier chain
	index     int        // calendar bucket, inFar, inSlot, or fired once popped
	cancelled bool
}

// before is the kernel's strict total event order: time, then scheduling
// sequence.
func (a *eventItem) before(b *eventItem) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

const (
	fired = -2
	// inSlot marks an item held in the engine's fast-path slot: in neither
	// calendar tier, not yet fired, still cancellable.
	inSlot = -4
)

// preloadRun is a batch of request deliveries installed by Preload, in
// arrival order: delivery i fires at reqs[i].Arrival with sequence number
// base+i, the one an At call per request would have given it. Runs live
// outside the queue and are merged lazily: the dispatcher compares each
// run's head against the queue's minimum, so a run of n arrivals costs no
// allocation and zero queue operations instead of n eventItem allocations
// and n pushes.
type preloadRun struct {
	reqs []core.Request
	base uint64
	fn   func(core.Request, time.Duration)
	next int
}

// Engine is a discrete-event simulator. The zero value is ready to use.
type Engine struct {
	now time.Duration
	seq uint64
	q   calQueue
	// slot holds the earliest event scheduled since the last consume:
	// self-chaining workloads (a generator tick scheduling the next tick, a
	// service completion starting the next service) usually schedule the
	// very event that fires next, and the slot lets it bypass the calendar
	// queue's push/pop round trip entirely.
	slot      *eventItem
	runs      []preloadRun
	free      []*eventItem // recycled event records (see alloc/release)
	fired     uint64
	cancelled int
	halted    bool
	probe     func(now time.Duration, fired uint64)

	// Introspection counters (see stats): event-pool blocks ever allocated,
	// slot fast-path consumes, and the wall-clock buckets of timed drains.
	poolBlocks int
	slotHits   uint64
	times      engineTimes
}

// alloc takes an event record off the free list, growing it a block at a
// time: steady-state simulation (the storage hot path schedules one service
// completion per request plus idle/spin timers) reuses records instead of
// allocating one per event, and a cold engine pays one allocation per
// poolBlock events rather than per event.
const poolBlock = 64

func (e *Engine) alloc() *eventItem {
	if n := len(e.free); n > 0 {
		it := e.free[n-1]
		e.free = e.free[:n-1]
		return it
	}
	e.poolBlocks++
	block := make([]eventItem, poolBlock)
	for i := poolBlock - 1; i > 0; i-- {
		e.free = append(e.free, &block[i])
	}
	return &block[0]
}

// release returns a popped record to the free list. Bumping the generation
// invalidates every outstanding Handle to the record before it is reused;
// dropping the callback releases whatever the closure captured.
func (e *Engine) release(it *eventItem) {
	it.gen++
	it.fn = nil
	e.free = append(e.free, it)
}

// SetProbe installs an observer called for every executed event, after the
// clock advances and before the event's callback, with the new virtual time
// and the cumulative fired count. The observability layer uses it to keep
// sim-time and event-throughput gauges current; a nil probe (the default)
// costs one branch per event. The probe must not schedule or cancel events.
func (e *Engine) SetProbe(fn func(now time.Duration, fired uint64)) { e.probe = fn }

// ErrPast is returned when an event is scheduled before the current virtual
// time.
var ErrPast = errors.New("simkernel: event scheduled in the past")

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Pending returns the number of events still queued, counting preloaded
// arrivals not yet delivered and cancelled events not yet reaped. Cancelled
// events stay queued until the dispatcher reaches them (Cancel is O(1)
// because it runs on the disk submit hot path); use Live for the count that
// excludes them.
func (e *Engine) Pending() int {
	n := e.q.Len()
	if e.slot != nil {
		n++
	}
	for i := range e.runs {
		n += len(e.runs[i].reqs) - e.runs[i].next
	}
	return n
}

// Live returns the number of events that will still fire: Pending minus
// cancelled-but-unreaped events.
func (e *Engine) Live() int { return e.Pending() - e.cancelled }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it always indicates a simulator bug, never an input problem.
func (e *Engine) At(t time.Duration, fn Event) Handle {
	if t < e.now {
		panic(fmt.Errorf("%w: at=%s now=%s", ErrPast, t, e.now))
	}
	it := e.alloc()
	it.at, it.seq, it.fn, it.cancelled = t, e.seq, fn, false
	e.seq++
	// Fast path: hold the earliest pending schedule in the slot. A
	// later-keyed schedule goes through the queue; an earlier one takes the
	// slot and demotes the previous holder to the queue (the returned
	// handle must stay on the new item).
	if s := e.slot; s == nil || t < s.at {
		it.index = inSlot
		e.slot = it
		if s != nil {
			e.q.Push(s)
		}
	} else {
		e.q.Push(it)
	}
	return Handle{item: it, gen: it.gen}
}

// After schedules fn to run d after the current virtual time.
func (e *Engine) After(d time.Duration, fn Event) Handle {
	return e.At(e.now+d, fn)
}

// Preload schedules delivery of every request at its arrival time, calling
// fn(request, now) as each fires. It is equivalent to an At call per
// request — preloaded deliveries interleave with queued events in exactly
// the (time, scheduling-order) sequence those At calls would produce — but
// stores the batch as one run merged lazily with the queue. A run in
// arrival order reads reqs in place, so the caller must not modify reqs
// until the run has delivered it; a run out of order is copied once and
// stably sorted by arrival. Arrivals before the current virtual time panic
// like At; preloaded deliveries cannot be cancelled.
func (e *Engine) Preload(reqs []core.Request, fn func(core.Request, time.Duration)) {
	if fn == nil {
		panic("simkernel: Preload with nil fn")
	}
	if len(reqs) == 0 {
		return
	}
	ordered := true
	for i, r := range reqs {
		if r.Arrival < e.now {
			panic(fmt.Errorf("%w: at=%s now=%s", ErrPast, r.Arrival, e.now))
		}
		if i > 0 && r.Arrival < reqs[i-1].Arrival {
			ordered = false
		}
	}
	// Traces are normally arrival-ordered already. Otherwise the stable
	// sort keeps requests with equal arrivals in input order, the order
	// their At calls' sequence numbers would give them.
	if !ordered {
		reqs = slices.Clone(reqs)
		slices.SortStableFunc(reqs, func(a, b core.Request) int { return cmp.Compare(a.Arrival, b.Arrival) })
	}
	e.runs = append(e.runs, preloadRun{reqs: reqs, base: e.seq, fn: fn})
	e.seq += uint64(len(reqs))
}

// Cancel prevents the handled event from firing. Cancelling an already-fired
// or zero handle is a no-op.
func (e *Engine) Cancel(h Handle) {
	if h.item == nil || h.item.gen != h.gen || h.item.index == fired || h.item.cancelled {
		return
	}
	h.item.cancelled = true
	e.cancelled++
}

// Halt stops the run loop after the currently executing event returns.
func (e *Engine) Halt() { e.halted = true }

// head returns the earliest live queued record — the slot or the calendar
// minimum — reaping the cancelled records it passes, or nil when none is
// queued.
func (e *Engine) head() *eventItem {
	for {
		it := e.q.Peek()
		if s := e.slot; s != nil && (it == nil || s.before(it)) {
			it = s
		}
		if it == nil || !it.cancelled {
			return it
		}
		e.take(it)
		e.cancelled--
		e.release(it)
	}
}

// take removes the record head returned.
func (e *Engine) take(it *eventItem) {
	if it == e.slot {
		e.slot = nil
		it.index = fired
		e.slotHits++
		return
	}
	e.q.Pop()
}

// firstRun returns the index of the preload run whose head precedes it
// (nil: precedes everything) in (time, seq) order, or -1. The run list
// stays tiny (one entry per Preload batch), so the scan is a few
// comparisons, far cheaper than keeping arrivals queued.
func (e *Engine) firstRun(it *eventItem) int {
	src, have := -1, it != nil
	var at time.Duration
	var seq uint64
	if have {
		at, seq = it.at, it.seq
	}
	for i := range e.runs {
		r := &e.runs[i]
		evAt, evSeq := r.reqs[r.next].Arrival, r.base+uint64(r.next)
		if !have || evAt < at || (evAt == at && evSeq < seq) {
			src, at, seq, have = i, evAt, evSeq, true
		}
	}
	return src
}

// Step executes the next non-cancelled event, advancing the clock. It
// returns false when nothing is pending.
func (e *Engine) Step() bool {
	it := e.head()
	if len(e.runs) > 0 {
		if src := e.firstRun(it); src >= 0 {
			r := &e.runs[src]
			req := r.reqs[r.next]
			r.next++
			fn, at := r.fn, req.Arrival
			if r.next == len(r.reqs) {
				e.runs = slices.Delete(e.runs, src, src+1)
			}
			e.now = at
			e.fired++
			if e.probe != nil {
				e.probe(at, e.fired)
			}
			fn(req, at)
			return true
		}
	}
	if it == nil {
		return false
	}
	e.take(it)
	at, fn := it.at, it.fn
	e.now = at
	e.fired++
	// Recycle before dispatch: fn may schedule new events, and the record is
	// free for them — any handle to the fired event is invalidated by the
	// generation bump.
	e.release(it)
	if e.probe != nil {
		e.probe(at, e.fired)
	}
	fn(at)
	return true
}

// Run executes events until the queue is empty or Halt is called, and
// returns the final virtual time.
func (e *Engine) Run() time.Duration {
	e.halted = false
	for !e.halted && e.Step() {
	}
	return e.now
}

// RunUntil executes events with timestamps <= deadline; the clock is then
// advanced to the deadline even if no event fired exactly there.
func (e *Engine) RunUntil(deadline time.Duration) time.Duration {
	e.halted = false
	for !e.halted {
		next, ok := e.peek()
		if !ok || next > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// RunBefore executes events with timestamps strictly before t (at or
// before t-1ns: virtual time is integer nanoseconds), then advances the
// clock to t. Events at exactly t stay queued, so a caller that delivers
// its own work at t (a streamed arrival) runs ahead of them, as a
// preloaded arrival would.
func (e *Engine) RunBefore(t time.Duration) time.Duration {
	e.RunUntil(t - 1)
	if e.now < t {
		e.now = t
	}
	return e.now
}

// peek returns the timestamp of the next live event.
func (e *Engine) peek() (time.Duration, bool) {
	it := e.head()
	if src := e.firstRun(it); src >= 0 {
		r := &e.runs[src]
		return r.reqs[r.next].Arrival, true
	}
	if it == nil {
		return 0, false
	}
	return it.at, true
}
