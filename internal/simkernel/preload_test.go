package simkernel

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
)

// raceEnabled is set by race_test.go: the race detector instruments
// allocations, so exact allocation counts are checked only without it.
var raceEnabled bool

func preloadReqs(arrivals ...time.Duration) []core.Request {
	reqs := make([]core.Request, len(arrivals))
	for i, at := range arrivals {
		reqs[i] = core.Request{ID: core.RequestID(i), Block: core.BlockID(i), Arrival: at}
	}
	return reqs
}

// TestPreloadMatchesAtLoop pins Preload's contract: interleaved with heap
// events, preloaded deliveries fire in exactly the order an At call per
// request would produce — including FIFO ties at the same instant.
func TestPreloadMatchesAtLoop(t *testing.T) {
	t.Parallel()
	arrivals := []time.Duration{
		2 * time.Second, 2 * time.Second, 5 * time.Second, 7 * time.Second,
	}
	heapTimes := []time.Duration{time.Second, 2 * time.Second, 6 * time.Second}

	trace := func(preload bool) []string {
		var e Engine
		var got []string
		reqs := preloadReqs(arrivals...)
		// Heap events scheduled first, as armFailures is in storage.
		for _, at := range heapTimes {
			at := at
			e.At(at, func(now time.Duration) {
				got = append(got, "heap@"+now.String())
			})
		}
		record := func(r core.Request, now time.Duration) {
			got = append(got, fmt.Sprintf("req%d@%s", r.ID, now))
		}
		if preload {
			e.Preload(reqs, record)
		} else {
			for _, r := range reqs {
				r := r
				e.At(r.Arrival, func(now time.Duration) { record(r, now) })
			}
		}
		e.Run()
		return got
	}

	want, got := trace(false), trace(true)
	if len(want) != len(got) {
		t.Fatalf("fired %d events with Preload, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("event %d = %q with Preload, want %q (full: %v vs %v)", i, got[i], want[i], got, want)
		}
	}
}

func TestPreloadSortsUnorderedArrivals(t *testing.T) {
	t.Parallel()
	var e Engine
	var got []core.RequestID
	e.Preload(preloadReqs(3*time.Second, time.Second, 2*time.Second),
		func(r core.Request, _ time.Duration) { got = append(got, r.ID) })
	e.Run()
	want := []core.RequestID{1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery order = %v, want %v", got, want)
		}
	}
}

func TestPreloadPastArrivalPanics(t *testing.T) {
	t.Parallel()
	var e Engine
	e.At(2*time.Second, func(time.Duration) {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("Preload of a past arrival did not panic")
		}
	}()
	e.Preload(preloadReqs(time.Second), func(core.Request, time.Duration) {})
}

func TestPreloadPendingCountsRemaining(t *testing.T) {
	t.Parallel()
	var e Engine
	e.Preload(preloadReqs(time.Second, 2*time.Second, 3*time.Second),
		func(core.Request, time.Duration) {})
	if e.Pending() != 3 {
		t.Fatalf("Pending() = %d after preloading 3, want 3", e.Pending())
	}
	e.Step()
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d after one step, want 2", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after run, want 0", e.Pending())
	}
}

// TestPendingAndLiveWithCancelled pins the documented accounting: Cancel is
// O(1) and leaves the event in the heap, so Pending includes it until the
// dispatcher reaps it, while Live excludes it immediately.
func TestPendingAndLiveWithCancelled(t *testing.T) {
	t.Parallel()
	var e Engine
	h := e.At(time.Second, func(time.Duration) { t.Fatal("cancelled event fired") })
	e.At(2*time.Second, func(time.Duration) {})
	e.Cancel(h)
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d with one cancelled-unreaped event, want 2", e.Pending())
	}
	if e.Live() != 1 {
		t.Fatalf("Live() = %d with one cancelled event, want 1", e.Live())
	}
	e.Cancel(h) // double-cancel must not double-count
	if e.Live() != 1 {
		t.Fatalf("Live() = %d after double cancel, want 1", e.Live())
	}
	if !e.Step() { // fires the 2s event, reaping the cancelled one
		t.Fatal("Step() = false, want true")
	}
	if e.Pending() != 0 || e.Live() != 0 {
		t.Fatalf("Pending() = %d, Live() = %d after run, want 0, 0", e.Pending(), e.Live())
	}
}

func TestPreloadInterleavesWithRunUntil(t *testing.T) {
	t.Parallel()
	var e Engine
	fired := 0
	e.Preload(preloadReqs(time.Second, 3*time.Second, 5*time.Second),
		func(core.Request, time.Duration) { fired++ })
	e.RunUntil(3 * time.Second)
	if fired != 2 {
		t.Fatalf("fired %d preloaded events by 3s, want 2", fired)
	}
	if at, ok := e.peek(); !ok || at != 5*time.Second {
		t.Fatalf("peek() = %v, %v, want 5s, true", at, ok)
	}
	e.Run()
	if fired != 3 {
		t.Fatalf("fired %d preloaded events total, want 3", fired)
	}
}

// TestPreloadUnorderedCopiesAndMatchesAtLoop pins the out-of-order path:
// the run sorts a copy, so the caller's slice is left as it was, and its
// deliveries (ties at one instant included) interleave with events queued
// before and after it in the order an At call per request gives.
func TestPreloadUnorderedCopiesAndMatchesAtLoop(t *testing.T) {
	t.Parallel()
	arrivals := []time.Duration{
		3 * time.Second, time.Second, 2 * time.Second, time.Second,
		3 * time.Second, 2 * time.Second, 2 * time.Second, 0,
	}
	trace := func(preload bool) ([]string, []core.Request) {
		var e Engine
		var got []string
		heap := func(at time.Duration) {
			e.At(at, func(now time.Duration) { got = append(got, "heap@"+now.String()) })
		}
		for _, at := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
			heap(at)
		}
		reqs := preloadReqs(arrivals...)
		record := func(r core.Request, now time.Duration) {
			got = append(got, fmt.Sprintf("req%d@%s", r.ID, now))
		}
		if preload {
			e.Preload(reqs, record)
		} else {
			for _, r := range reqs {
				e.At(r.Arrival, func(now time.Duration) { record(r, now) })
			}
		}
		heap(2 * time.Second)
		e.Run()
		return got, reqs
	}
	want, _ := trace(false)
	got, reqs := trace(true)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Preload delivered\n%v\nwant the At loop's\n%v", got, want)
	}
	if fresh := preloadReqs(arrivals...); fmt.Sprint(reqs) != fmt.Sprint(fresh) {
		t.Fatalf("Preload rewrote the caller's slice: %v, want %v", reqs, fresh)
	}
}

// TestPreloadOrderedAllocatesNothingPerRequest pins the in-order path: the
// run reads the caller's slice in place, so preloading and delivering
// 4,096 requests allocates under a byte a request more than preloading and
// delivering one (a copy would cost 4,096 request records).
//
// Not parallel: runtime.MemStats counts the whole process's allocations.
func TestPreloadOrderedAllocatesNothingPerRequest(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	const runs = 20
	bytesPerRun := func(n int) uint64 {
		arrivals := make([]time.Duration, n)
		for i := range arrivals {
			arrivals[i] = time.Duration(i/3) * time.Millisecond // ties included
		}
		reqs := preloadReqs(arrivals...)
		deliver := func(core.Request, time.Duration) {}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			var e Engine
			e.Preload(reqs, deliver)
			e.Run()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	const n = 4096
	if one, many := bytesPerRun(1), bytesPerRun(n); many > one+n {
		t.Errorf("an ordered run of %d requests allocates %d B, one request %d B", n, many, one)
	}
}
