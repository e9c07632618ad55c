package serve

import (
	"runtime"
	"sync/atomic"
)

// ring is a bounded multi-producer single-consumer queue of admitted
// requests, modeled on the flight recorder's sequence-stamped ring: one
// atomic ticket fetch plus one slot store per push, no locks, no
// allocation. Producers are Submit goroutines; the consumer is whichever
// goroutine holds the engine's combining token (see Engine).
//
// Each slot carries a sequence number. Slot i is free for ticket pos when
// seq == pos, published when seq == pos+1, and recycled by the consumer to
// pos+len for the next lap. Capacity must exceed the maximum number of
// simultaneously queued items (the engine sizes rings to MaxInFlight, the
// admission bound), so the producer-side wait for a slot only triggers on
// a consumer lagging mid-lap, never on sustained overflow.
type ring struct {
	slots []ringSlot
	mask  uint64
	_     [48]byte // keep tail off the slots/mask cache line
	tail  atomic.Uint64
	_     [56]byte // producers bang on tail; keep head clear of it
	head  atomic.Uint64
}

type ringSlot struct {
	seq atomic.Uint64
	p   *pending
}

// newRing returns a ring with capacity rounded up to a power of two, at
// least min.
func newRing(min int) *ring {
	n := 1
	for n < min {
		n <<= 1
	}
	r := &ring{slots: make([]ringSlot, n), mask: uint64(n - 1)}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
}

// push publishes p. Safe for any number of concurrent producers.
func (r *ring) push(p *pending) {
	pos := r.tail.Add(1) - 1
	s := &r.slots[pos&r.mask]
	for s.seq.Load() != pos {
		// Full lap: the consumer hasn't recycled this slot yet.
		runtime.Gosched()
	}
	s.p = p
	s.seq.Store(pos + 1)
}

// pop takes the next item, or nil when none is published (empty, or a
// producer holds a ticket but hasn't stored its slot yet). Single
// consumer: only the combining-token holder may call it.
func (r *ring) pop() *pending {
	h := r.head.Load()
	s := &r.slots[h&r.mask]
	if s.seq.Load() != h+1 {
		return nil
	}
	p := s.p
	s.p = nil
	s.seq.Store(h + uint64(len(r.slots)))
	r.head.Store(h + 1)
	return p
}

// empty reports whether every issued ticket has been consumed. A false
// return may reflect a producer that holds a ticket but hasn't published
// yet; the release-recheck protocol in Engine.combineOn relies on exactly
// that conservatism.
func (r *ring) empty() bool {
	return r.head.Load() == r.tail.Load()
}
