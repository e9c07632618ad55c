package simkernel

import (
	"math/rand"

	"repro/internal/core"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineZeroValueReady(t *testing.T) {
	t.Parallel()
	var e Engine
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
	if e.Step() {
		t.Fatal("Step() on empty queue = true, want false")
	}
}

func TestEngineFiresInTimeOrder(t *testing.T) {
	t.Parallel()
	var e Engine
	var got []time.Duration
	for _, d := range []time.Duration{5, 1, 3, 2, 4} {
		d := d * time.Second
		e.At(d, func(now time.Duration) { got = append(got, now) })
	}
	end := e.Run()
	if end != 5*time.Second {
		t.Errorf("Run() end = %v, want 5s", end)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Errorf("events fired out of order: %v", got)
	}
	if len(got) != 5 {
		t.Errorf("fired %d events, want 5", len(got))
	}
}

func TestEngineFIFOAtSameInstant(t *testing.T) {
	t.Parallel()
	var e Engine
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Second, func(time.Duration) { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant ordering broken: got %v", got)
		}
	}
}

func TestEngineAfterUsesCurrentTime(t *testing.T) {
	t.Parallel()
	var e Engine
	var fired time.Duration
	e.At(2*time.Second, func(time.Duration) {
		e.After(3*time.Second, func(now time.Duration) { fired = now })
	})
	e.Run()
	if fired != 5*time.Second {
		t.Errorf("nested After fired at %v, want 5s", fired)
	}
}

func TestEngineCancel(t *testing.T) {
	t.Parallel()
	var e Engine
	ran := false
	h := e.At(time.Second, func(time.Duration) { ran = true })
	if h.Cancelled() {
		t.Fatal("fresh handle reports cancelled")
	}
	e.Cancel(h)
	if !h.Cancelled() {
		t.Fatal("cancelled handle reports live")
	}
	e.Run()
	if ran {
		t.Error("cancelled event fired")
	}
}

func TestEngineCancelIsIdempotent(t *testing.T) {
	t.Parallel()
	var e Engine
	h := e.At(time.Second, func(time.Duration) {})
	e.Cancel(h)
	e.Cancel(h)
	e.Cancel(Handle{}) // zero handle
	e.Run()
}

func TestEngineHalt(t *testing.T) {
	t.Parallel()
	var e Engine
	count := 0
	e.At(1*time.Second, func(time.Duration) { count++; e.Halt() })
	e.At(2*time.Second, func(time.Duration) { count++ })
	e.Run()
	if count != 1 {
		t.Fatalf("fired %d events after Halt, want 1", count)
	}
	// A second Run resumes.
	e.Run()
	if count != 2 {
		t.Fatalf("fired %d events total, want 2", count)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	t.Parallel()
	var e Engine
	e.At(5*time.Second, func(time.Duration) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(time.Second, func(time.Duration) {})
	})
	e.Run()
}

func TestEngineRunUntil(t *testing.T) {
	t.Parallel()
	var e Engine
	var fired []time.Duration
	for _, s := range []time.Duration{1, 2, 3, 7} {
		s := s * time.Second
		e.At(s, func(now time.Duration) { fired = append(fired, now) })
	}
	end := e.RunUntil(5 * time.Second)
	if end != 5*time.Second {
		t.Errorf("RunUntil end = %v, want 5s", end)
	}
	if len(fired) != 3 {
		t.Errorf("fired %d events, want 3 (the 7s event is beyond the deadline)", len(fired))
	}
	if e.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1", e.Pending())
	}
	e.Run()
	if len(fired) != 4 {
		t.Errorf("resume after RunUntil fired %d total, want 4", len(fired))
	}
}

// TestEngineRunBefore pins the strict bound: an event at exactly t stays
// queued while the clock moves to t, and RunUntil(t) then fires it.
func TestEngineRunBefore(t *testing.T) {
	t.Parallel()
	var e Engine
	var fired []time.Duration
	for _, s := range []time.Duration{1, 3, 3, 7} {
		e.At(s*time.Second, func(now time.Duration) { fired = append(fired, now) })
	}
	if end := e.RunBefore(3 * time.Second); end != 3*time.Second || len(fired) != 1 {
		t.Fatalf("RunBefore(3s) = %v with %d fired, want 3s with 1", end, len(fired))
	}
	if end := e.RunBefore(3 * time.Second); end != 3*time.Second || len(fired) != 1 {
		t.Fatalf("repeated RunBefore(3s) = %v with %d fired, want 3s with 1", end, len(fired))
	}
	if e.RunUntil(3 * time.Second); len(fired) != 3 {
		t.Fatalf("RunUntil(3s) fired %d in all, want 3", len(fired))
	}
}

func TestEngineRunUntilAdvancesClockWithoutEvents(t *testing.T) {
	t.Parallel()
	var e Engine
	e.RunUntil(42 * time.Second)
	if e.Now() != 42*time.Second {
		t.Errorf("Now() = %v, want 42s", e.Now())
	}
}

func TestEngineFiredCounter(t *testing.T) {
	t.Parallel()
	var e Engine
	for i := 0; i < 7; i++ {
		e.At(time.Duration(i)*time.Second, func(time.Duration) {})
	}
	h := e.At(8*time.Second, func(time.Duration) {})
	e.Cancel(h)
	e.Run()
	if e.Fired() != 7 {
		t.Errorf("Fired() = %d, want 7", e.Fired())
	}
}

// Property: for any random multiset of event times, events fire in
// nondecreasing time order and all non-cancelled events fire exactly once.
func TestEngineOrderingProperty(t *testing.T) {
	t.Parallel()
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var e Engine
		count := int(n)%64 + 1
		var fired []time.Duration
		for i := 0; i < count; i++ {
			at := time.Duration(rng.Int63n(int64(time.Hour)))
			e.At(at, func(now time.Duration) { fired = append(fired, now) })
		}
		e.Run()
		if len(fired) != count {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkEngineScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var e Engine
		for j := 0; j < 1024; j++ {
			e.At(time.Duration(j%97)*time.Millisecond, func(time.Duration) {})
		}
		e.Run()
	}
}

// TestProbeSeesEveryExecutedEvent pins the SetProbe contract: the probe
// fires after every executed event — queued and preloaded alike —
// with the post-execution clock and a fired count that increments by one
// each call.
func TestProbeSeesEveryExecutedEvent(t *testing.T) {
	var e Engine
	type obs struct {
		now   time.Duration
		fired uint64
	}
	var seen []obs
	e.SetProbe(func(now time.Duration, fired uint64) {
		seen = append(seen, obs{now, fired})
	})
	e.At(3*time.Second, func(time.Duration) {})
	e.At(1*time.Second, func(time.Duration) {})
	e.Preload(requestsAt(2*time.Second, 4*time.Second), func(core.Request, time.Duration) {})
	e.Run()
	want := []obs{
		{1 * time.Second, 1},
		{2 * time.Second, 2},
		{3 * time.Second, 3},
		{4 * time.Second, 4},
	}
	if len(seen) != len(want) {
		t.Fatalf("probe called %d times, want %d", len(seen), len(want))
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Errorf("probe call %d = %+v, want %+v", i, seen[i], want[i])
		}
	}
	if e.Fired() != uint64(len(want)) {
		t.Errorf("Fired() = %d, want %d", e.Fired(), len(want))
	}
}

// TestProbeFiresBeforeEventBody documents the ordering the storage layer
// relies on: gauge updates installed via SetProbe observe the new clock
// before the event's own callback runs.
func TestProbeFiresBeforeEventBody(t *testing.T) {
	var e Engine
	var order []string
	e.SetProbe(func(time.Duration, uint64) { order = append(order, "probe") })
	e.At(time.Second, func(time.Duration) { order = append(order, "event") })
	e.Run()
	if len(order) != 2 || order[0] != "probe" || order[1] != "event" {
		t.Fatalf("order = %v, want [probe event]", order)
	}
}

// requestsAt builds a minimal arrival run for Preload-based probe tests.
func requestsAt(times ...time.Duration) []core.Request {
	reqs := make([]core.Request, len(times))
	for i, at := range times {
		reqs[i] = core.Request{ID: core.RequestID(i), Arrival: at}
	}
	return reqs
}
