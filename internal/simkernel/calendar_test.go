package simkernel

import (
	"container/heap"
	"math/rand"
	"testing"
	"time"
)

// eventHeap is a binary heap of event records in (at, seq) order: the
// reference the calendar queue and the Engine are checked against.
type eventHeap []*eventItem

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return h[i].before(h[j]) }
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	it := x.(*eventItem)
	it.index = len(*h)
	*h = append(*h, it)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	it.index = fired
	*h = old[:n-1]
	return it
}

// refHeap drives eventHeap as the ordering oracle for the calendar queue
// property tests.
type refHeap struct{ h eventHeap }

func (r *refHeap) push(it *eventItem) { heap.Push(&r.h, it) }
func (r *refHeap) pop() *eventItem {
	if len(r.h) == 0 {
		return nil
	}
	return heap.Pop(&r.h).(*eventItem)
}

// TestCalendarMatchesHeap drives a calendar queue and the binary heap with
// the same randomized push/pop interleavings and requires identical pop
// sequences, across several workload shapes that stress different bucket
// geometries.
func TestCalendarMatchesHeap(t *testing.T) {
	shapes := []struct {
		name string
		gap  func(rng *rand.Rand) time.Duration
	}{
		{"uniform-ms", func(rng *rand.Rand) time.Duration { return time.Duration(rng.Int63n(int64(5 * time.Millisecond))) }},
		{"uniform-wide", func(rng *rand.Rand) time.Duration { return time.Duration(rng.Int63n(int64(3 * time.Hour))) }},
		{"same-instant", func(rng *rand.Rand) time.Duration { return 0 }},
		{"bimodal", func(rng *rand.Rand) time.Duration {
			if rng.Intn(10) == 0 {
				return time.Duration(rng.Int63n(int64(10 * time.Second)))
			}
			return time.Duration(rng.Int63n(int64(100 * time.Microsecond)))
		}},
		// Pushes behind the cursor. Regression shape for lap aliasing: a
		// push before the ring's lap origin must rebase the lap, not land
		// in a bucket a lap away where the cursor sweep overlooks it.
		{"time-warp", func(rng *rand.Rand) time.Duration {
			if rng.Intn(20) == 0 {
				return -time.Duration(rng.Int63n(int64(time.Second)))
			}
			return time.Duration(rng.Int63n(int64(50 * time.Microsecond)))
		}},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			cal := &calQueue{}
			ref := &refHeap{}
			var now time.Duration
			var seq uint64
			for step := 0; step < 20000; step++ {
				if cal.Len() == 0 || rng.Intn(100) < 55 {
					at := now + shape.gap(rng)
					if at < 0 {
						at = 0
					}
					a := &eventItem{at: at, seq: seq}
					b := &eventItem{at: at, seq: seq}
					seq++
					cal.Push(a)
					ref.push(b)
					continue
				}
				got, want := cal.Pop(), ref.pop()
				if got.at != want.at || got.seq != want.seq {
					t.Fatalf("step %d: calendar popped (at=%v seq=%d), heap popped (at=%v seq=%d)",
						step, got.at, got.seq, want.at, want.seq)
				}
				if got.index != fired {
					t.Fatalf("step %d: popped item index = %d, want fired", step, got.index)
				}
				now = got.at
			}
			for {
				got, want := cal.Pop(), ref.pop()
				if got == nil || want == nil {
					if got != nil || want != nil {
						t.Fatalf("drain mismatch: calendar=%v heap=%v", got, want)
					}
					break
				}
				if got.at != want.at || got.seq != want.seq {
					t.Fatalf("drain: calendar popped (at=%v seq=%d), heap popped (at=%v seq=%d)",
						got.at, got.seq, want.at, want.seq)
				}
			}
		})
	}
}

// TestCalendarPeekPop pins Peek as a non-destructive preview of Pop,
// including across interleaved pushes that invalidate the memoized minimum.
func TestCalendarPeekPop(t *testing.T) {
	q := &calQueue{}
	rng := rand.New(rand.NewSource(7))
	var seq uint64
	for i := 0; i < 500; i++ {
		q.Push(&eventItem{at: time.Duration(rng.Int63n(int64(time.Second))), seq: seq})
		seq++
	}
	for iter := 0; q.Len() > 0; iter++ {
		p := q.Peek()
		if iter%7 == 3 {
			q.Push(&eventItem{at: p.at, seq: seq}) // same time, later seq: must not displace p
			seq++
			if q2 := q.Peek(); q2 != p {
				t.Fatalf("push at same time displaced peeked min: %v -> %v", p, q2)
			}
		}
		if got := q.Pop(); got != p {
			t.Fatalf("pop returned %+v, peek promised %+v", got, p)
		}
	}
}

// TestCalendarResizeEdges exercises bucket-geometry edge cases: a burst of
// identical timestamps (zero span forces the minimum width), a huge time
// spread right after, and a drain back through the shrink threshold.
func TestCalendarResizeEdges(t *testing.T) {
	q := &calQueue{}
	var seq uint64
	push := func(at time.Duration) {
		q.Push(&eventItem{at: at, seq: seq})
		seq++
	}
	// Same-instant burst well past the grow threshold: span 0, width clamps.
	for i := 0; i < 300; i++ {
		push(time.Second)
	}
	// Extreme spread: items years apart retrigger growth with a wide width.
	for i := 0; i < 300; i++ {
		push(time.Second + time.Duration(i)*365*24*time.Hour)
	}
	var last time.Duration
	var lastSeq uint64
	firstPop := true
	for i := 0; q.Len() > 0; i++ {
		it := q.Pop()
		if !firstPop && (it.at < last || (it.at == last && it.seq < lastSeq)) {
			t.Fatalf("pop %d out of order: (at=%v seq=%d) after (at=%v seq=%d)", i, it.at, it.seq, last, lastSeq)
		}
		last, lastSeq, firstPop = it.at, it.seq, false
	}
	if q.Pop() != nil || q.Peek() != nil {
		t.Fatal("empty queue must pop/peek nil")
	}
	// Occupancy-driven growth: pushes landing inside the ring's lap double
	// the bucket count once the population passes the grow factor.
	for i := 0; i < 300; i++ {
		push(time.Duration(i) * time.Microsecond)
	}
	grown := len(q.buckets)
	if grown <= calMinBuckets {
		t.Fatalf("occupancy never grew the ring (buckets = %d)", grown)
	}
	for q.Len() > 0 {
		q.Pop()
	}
	// Shrinking is gated by calCountHysteresis pops so burst/idle regime
	// changes cannot thrash the ring's allocations; after enough sustained
	// traffic at low occupancy the ring must shrink back down.
	for i := 0; len(q.buckets) > calMinBuckets && i < 100*calCountHysteresis; i++ {
		push(time.Duration(i) * time.Millisecond)
		if q.Pop() == nil {
			t.Fatal("pop during shrink traffic returned nil")
		}
	}
	if len(q.buckets) != calMinBuckets {
		t.Fatalf("ring never shrank: buckets = %d, want %d", len(q.buckets), calMinBuckets)
	}
}
