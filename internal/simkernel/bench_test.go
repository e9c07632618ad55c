package simkernel

import (
	"testing"
	"time"

	"repro/internal/core"
)

func benchArrivals(n int) []core.Request {
	reqs := make([]core.Request, n)
	for i := range reqs {
		reqs[i] = core.Request{
			ID:      core.RequestID(i),
			Block:   core.BlockID(i % 64),
			Arrival: time.Duration(i) * time.Millisecond,
		}
	}
	return reqs
}

// BenchmarkSchedulePerEvent is the pre-Preload arrival path: one heap push
// and one closure per request.
func BenchmarkSchedulePerEvent(b *testing.B) {
	reqs := benchArrivals(10000)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var e Engine
		fired := 0
		for _, r := range reqs {
			r := r
			e.At(r.Arrival, func(time.Duration) { fired++ })
		}
		e.Run()
		if fired != len(reqs) {
			b.Fatalf("fired %d of %d", fired, len(reqs))
		}
	}
}

// BenchmarkSchedulePreloaded is the same workload through Preload: one
// run, read in place from the arrival-ordered trace, merged lazily with
// the queue.
func BenchmarkSchedulePreloaded(b *testing.B) {
	reqs := benchArrivals(10000)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var e Engine
		fired := 0
		e.Preload(reqs, func(core.Request, time.Duration) { fired++ })
		e.Run()
		if fired != len(reqs) {
			b.Fatalf("fired %d of %d", fired, len(reqs))
		}
	}
}

// BenchmarkScheduleMixed interleaves a preloaded arrival run with per-event
// heap traffic (the shape of a real simulation: one run of arrivals plus
// disk timers scheduled on the fly).
func BenchmarkScheduleMixed(b *testing.B) {
	reqs := benchArrivals(10000)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var e Engine
		fired := 0
		e.Preload(reqs, func(r core.Request, now time.Duration) {
			fired++
			if r.ID%8 == 0 {
				e.After(3*time.Millisecond, func(time.Duration) { fired++ })
			}
		})
		e.Run()
	}
}
