package simkernel

import (
	"math"
	"math/bits"
	"time"
)

// calQueue is a calendar queue (Brown, CACM 1988) with a ladder-style far
// tier, specialized for the kernel's eventItems. The near tier is a ring of
// buckets covering exactly one lap of virtual time, [curStart, limit):
// bucket i holds only items from its own window, as an unsorted chain
// threaded through eventItem.next — a push links the item at the head, min
// extraction linearly scans the cursor bucket's chain (a handful of items),
// and removal unlinks it. Items at or beyond limit wait in an unsorted far
// chain and are admitted in bulk when the ring drains — each admission pass
// is O(far), so enqueue and dequeue stay O(1) amortized regardless of queue
// size. Because the chains are intrusive, the queue allocates only its
// bucket-header array, once per bucket-count change: never per bucket,
// per push or per rebuild. The split is what survives fleet workloads, whose
// timestamp mix is sharply bimodal (µs-spaced service completions against
// power-policy timers seconds out): no single bucket width covers both, but
// the ring only ever needs to match the density at the cursor.
//
// Two width estimators drive the geometry. While popping, an EWMA of the
// inter-pop gap tracks the density at the cursor, and Pop rebuilds the
// ring whenever the measured insert/scan cost per pop degrades (a regime
// change: burst → idle gap → burst). When the ring drains and the far tier
// takes over, the same pop-rate estimate positions the next lap; the far
// population's span is only the cold-start fallback.
//
// Ordering is the kernel's strict total order (at, then seq), so min
// extraction is deterministic no matter how items landed in a bucket.
// Cancellation is lazy: items keep their cancelled flag and the Engine
// reaps them when they surface at the front. The zero calQueue is empty and
// ready: the first Push lays out the ring.
type calQueue struct {
	buckets []*eventItem // chain heads
	mask    int          // len(buckets)-1; bucket count is a power of two
	shift   uint         // bucket width is 1<<shift nanoseconds
	n       int          // all queued items, both tiers, including cancelled ones
	nNear   int          // items in the ring

	// far chains items with at >= limit, unsorted. limit is base plus one
	// full lap of the ring; base is the lap's origin. Every near item lies
	// in [base, limit) — the strict one-lap invariant — so a bucket only
	// ever holds items from its own window and never aliased ones a lap
	// apart. Pushes before base rebase the lap (the kernel never schedules
	// into the past of its clock, so this is a safeguard, not a hot path).
	far   *eventItem
	nFar  int
	base  time.Duration
	limit time.Duration

	// Cursor state: the sweep is positioned at bucket curIdx, which covers
	// virtual times [curStart, curStart+width). Pops only ever move the
	// cursor forward; a push behind curStart rewinds it (the kernel pushes
	// in the past of the cursor only after a sparse-queue jump).
	curIdx   int
	curStart time.Duration

	// Peek/Pop pairs dominate the event loop, so findMin memoizes its
	// result with its bucket and chain predecessor (nil at the head); any
	// mutation invalidates it.
	memo     *eventItem
	memoB    int
	memoPrev *eventItem

	// Width calibration: gapEWMA tracks the recent inter-pop gap; ops/cost
	// meter the items the per-pop min scans touch.
	lastPop time.Duration
	gapEWMA uint64 // ns, ~last 16 pops
	ops     int    // pops since the last calibration check
	cost    int    // items touched by searches and insertions since then
	stable  int    // pops since the bucket count last changed

	// Introspection meters (see ShardStats): lifetime push/pop counts, how
	// often and why the geometry was rebuilt, and both tiers' high-water
	// occupancy. Plain increments on paths that already own the struct.
	pushes     uint64
	pops       uint64
	rebuilds   uint64
	recals     uint64 // rebuilds triggered by cost calibration
	migrations uint64
	farHW      int
	nHW        int
}

const (
	calMinBuckets = 8
	calMaxBuckets = 1 << 20
	// calGrowFactor bounds ring occupancy: past count×calGrowFactor near
	// items the ring doubles. Shrinking is deliberately slack (n below
	// count/calShrinkFactor) so the drain-to-empty pattern at the end of
	// every run does not thrash through repeated halvings.
	calGrowFactor   = 2
	calShrinkFactor = 8
	// calCalibrateOps / calCostFactor: every calCalibrateOps pops — or as
	// soon as the same cost has accrued, so a geometry gone badly stale is
	// fixed within a few pushes instead of calCalibrateOps pops — if
	// searches and insertions touched more than calCostFactor slots per pop
	// on average, the width no longer fits the event density and the ring
	// is rebuilt.
	calCalibrateOps = 256
	calCostFactor   = 10
	// calCountHysteresis: a rebuild may shrink the bucket count only after
	// this many pops at the current count, so the count does not ping-pong
	// with each burst/idle regime and churn the header array.
	calCountHysteresis = 4096
)

// inFar marks an item parked in the far tier. Distinct from `fired` so
// stale-handle checks keep working; never a valid bucket index.
const inFar = -3

func (q *calQueue) bucketOf(at time.Duration) int {
	return int(uint64(at)>>q.shift) & q.mask
}

// windowStart returns the start of the bucket window containing at.
func (q *calQueue) windowStart(at time.Duration) time.Duration {
	return at &^ (time.Duration(1)<<q.shift - 1)
}

func (q *calQueue) Len() int { return q.n }

// bucketCountFor rounds the population up to a power of two within the
// ring-size bounds.
func bucketCountFor(n int) int {
	c := calMinBuckets
	for c < n && c < calMaxBuckets {
		c <<= 1
	}
	return c
}

// popShift is the width estimate from the pop-rate EWMA, or ^uint(0) when
// there is no pop history yet. The target width is half the mean inter-pop
// gap: with unsorted buckets every pop at the cursor rescans its whole
// bucket (interleaved pushes keep invalidating the memo), so narrow,
// mostly-empty buckets beat the classic one-pop-per-bucket sizing — an
// empty header costs one length check to skip, a deep bucket costs a
// rescan per pop. Halving again measurably loses: the sweep's empty-header
// skips start to dominate.
func (q *calQueue) popShift() uint {
	ideal := q.gapEWMA / 2
	if ideal == 0 {
		return ^uint(0)
	}
	return clampShift(uint(bits.Len64(ideal)) - 1)
}

func clampShift(s uint) uint {
	if s > 62 {
		return 62
	}
	return s
}

// rebuild reconstructs both tiers with the given bucket count, width and
// cursor origin, redistributing every item against the new one-lap horizon.
// Buckets are unsorted, so redistribution gathers every chain into one and
// relinks each item in a single pass. Only a bucket count beyond the header
// array's capacity allocates: a shrink truncates the headers and a regrowth
// within capacity reuses them.
func (q *calQueue) rebuild(count int, shift uint, start time.Duration) {
	all := q.far
	for b, it := range q.buckets {
		for it != nil {
			next := it.next
			it.next = all
			all, it = it, next
		}
		q.buckets[b] = nil
	}
	q.far, q.nFar = nil, 0

	if count != len(q.buckets) {
		if count <= cap(q.buckets) {
			q.buckets = q.buckets[:count]
		} else {
			q.buckets = make([]*eventItem, count)
		}
		q.mask = count - 1
		q.stable = 0
	}
	q.shift = shift
	q.curStart = start &^ (time.Duration(1)<<shift - 1)
	q.curIdx = q.bucketOf(q.curStart)
	q.base = q.curStart
	span := time.Duration(count) << shift
	q.limit = q.curStart + span
	if span <= 0 || q.limit < q.curStart { // overflowed: ring covers everything
		q.limit = math.MaxInt64
	}
	q.nNear = 0
	q.memo = nil
	q.ops, q.cost = 0, 0
	for all != nil {
		next := all.next
		q.place(all)
		all = next
	}
	q.rebuilds++
	if q.nFar > q.farHW {
		q.farHW = q.nFar
	}
}

// place links one item into its tier; n is not touched.
func (q *calQueue) place(it *eventItem) {
	if it.at >= q.limit {
		it.index = inFar
		it.next = q.far
		q.far = it
		q.nFar++
		return
	}
	b := q.bucketOf(it.at)
	it.index = b
	it.next = q.buckets[b]
	q.buckets[b] = it
	q.nNear++
}

// Push inserts an item. The item's at and seq must already be set.
func (q *calQueue) Push(it *eventItem) {
	if q.buckets == nil {
		// First push: lay out the minimum ring with ~1ms buckets until the
		// first calibration learns better.
		q.rebuild(calMinBuckets, 20, it.at)
	}
	q.memo = nil
	if it.at < q.base {
		// The ring cannot represent a time before its lap origin without
		// aliasing it into a bucket a lap away; rebase the lap there.
		q.rebuild(len(q.buckets), q.shift, it.at)
	}
	q.pushes++
	q.n++
	if q.n > q.nHW {
		q.nHW = q.n
	}
	if it.at < q.limit && q.nNear >= len(q.buckets)*calGrowFactor && len(q.buckets) < calMaxBuckets {
		q.rebuild(len(q.buckets)*2, q.shift, q.curStart)
	}
	q.place(it)
	if q.nFar > q.farHW {
		q.farHW = q.nFar
	}
	if it.index != inFar && it.at < q.curStart {
		// The cursor has swept past this item's window (possible after a
		// sparse-queue jump far into the future); rewind so the sweep sees it.
		q.curIdx = q.bucketOf(it.at)
		q.curStart = q.windowStart(it.at)
	}
}

// Peek returns the minimum item by (at, seq) without removing it, or nil
// when the queue is empty. Cancelled items are returned like live ones;
// the Engine reaps them.
func (q *calQueue) Peek() *eventItem {
	it, _, _ := q.findMin()
	return it
}

// Pop removes and returns the minimum item, or nil when empty.
func (q *calQueue) Pop() *eventItem {
	if q.ops >= calCalibrateOps || q.cost >= calCalibrateOps*calCostFactor {
		if q.cost > q.ops*calCostFactor && q.n > 4 {
			if s := q.popShift(); s != ^uint(0) {
				count := bucketCountFor(q.nNear)
				if count < len(q.buckets) && q.stable < calCountHysteresis {
					count = len(q.buckets)
				}
				// Rebuild only if calibration actually changes the geometry:
				// a steady workload whose insert depth sits above the cost
				// threshold would otherwise trigger an identical rebuild every
				// few hundred pops, each an O(n) redistribution for nothing.
				if s != q.shift || count != len(q.buckets) {
					q.recals++
					q.rebuild(count, s, q.curStart)
				}
			}
		}
		q.ops, q.cost = 0, 0
	}
	it, b, prev := q.findMin()
	if it == nil {
		return nil
	}
	q.pops++
	// Inter-pop gap EWMA: the pop-rate width estimator. Pops are monotone
	// in at except across a cursor rewind, so negative gaps are skipped.
	if gap := it.at - q.lastPop; gap > 0 {
		q.gapEWMA += uint64(gap)/16 - q.gapEWMA/16
	}
	q.lastPop = it.at
	q.ops++
	q.stable++
	if prev == nil {
		q.buckets[b] = it.next
	} else {
		prev.next = it.next
	}
	it.next = nil
	q.n--
	q.nNear--
	q.memo = nil
	it.index = fired
	if q.n < len(q.buckets)/calShrinkFactor && len(q.buckets) > calMinBuckets &&
		q.stable >= calCountHysteresis {
		q.rebuild(len(q.buckets)/2, q.shift, q.curStart)
	}
	return it
}

// findMin locates the minimum item, its bucket and its chain predecessor,
// migrating the far tier into the ring first whenever the ring is empty
// (every far item sits at or beyond the ring's horizon, so the ring always
// holds the minimum).
func (q *calQueue) findMin() (*eventItem, int, *eventItem) {
	if q.n == 0 {
		return nil, 0, nil
	}
	if q.memo != nil {
		return q.memo, q.memoB, q.memoPrev
	}
	if q.nNear == 0 {
		q.migrate()
	}
	it, b, prev := q.searchMin()
	q.memo, q.memoB, q.memoPrev = it, b, prev
	return it, b, prev
}

// migrate advances the ring to the far tier's earliest window. The width
// comes from the pop-rate EWMA — the regime the queue is actually popping
// in — because the far population's span is routinely poisoned by one
// far-future outlier (a rack's next burst tick seconds out behind µs-spaced
// service events): a span-derived width would smear the whole upcoming
// burst into one bucket. The span estimate is only the cold-start fallback.
// If the chosen horizon still leaves items far, they are admitted by a
// later migrate, each pass O(far); the cursor jumps straight to the
// earliest far window, so sparse phases cost one migrate per cluster, not
// one per lap.
func (q *calQueue) migrate() {
	minAt, maxAt := q.far.at, q.far.at
	for it := q.far.next; it != nil; it = it.next {
		if it.at < minAt {
			minAt = it.at
		}
		if it.at > maxAt {
			maxAt = it.at
		}
	}
	// Right-size the ring to the population being admitted: an idle-phase
	// cluster (a handful of power timers) gets a minimum ring instead of
	// dragging the previous burst's bucket count through every rebuild.
	// Count changes reuse the header array's capacity, so resizing here
	// only buys cheaper rebuild sweeps; Push's occupancy growth restores a
	// big ring within one doubling cascade when the next burst arrives.
	count := bucketCountFor(q.nFar)
	shift := q.popShift()
	if shift == ^uint(0) {
		shift = q.shift
		if span := uint64(maxAt - minAt); span > 0 {
			ideal := span * 4 / uint64(q.nFar)
			if ideal == 0 {
				ideal = 1
			}
			shift = clampShift(uint(bits.Len64(ideal)) - 1)
		}
	}
	q.cost += q.nFar
	q.migrations++
	q.rebuild(count, shift, minAt)
}

// searchMin sweeps the cursor forward one bucket window at a time. The
// first non-empty bucket holds the global ring minimum, because the
// one-lap invariant confines every bucket's items to its own window — so
// the sweep skips empty headers and then min-scans one bucket's chain.
// The scan length is charged to the calibration cost meter: deep buckets
// mean the width has gone stale for the density at the cursor.
// A fruitless full lap is only possible if the invariant was disturbed
// (pushes into the past of a rewound cursor); the direct scan restores it
// by repositioning the cursor.
func (q *calQueue) searchMin() (*eventItem, int, *eventItem) {
	width := time.Duration(1) << q.shift
	idx, start := q.curIdx, q.curStart
	for lap := 0; lap <= q.mask; lap++ {
		q.cost++
		if head := q.buckets[idx]; head != nil && head.at < start+width {
			q.curIdx, q.curStart = idx, start
			it, prev, n := chainMin(head)
			q.cost += n
			return it, idx, prev
		}
		idx = (idx + 1) & q.mask
		start += width
	}
	q.cost += len(q.buckets)
	return q.directMin()
}

// chainMin returns a bucket chain's (at, seq) minimum, its predecessor
// (nil at the head) and the chain length.
func chainMin(head *eventItem) (best, prev *eventItem, n int) {
	best, n = head, 1
	for p, it := head, head.next; it != nil; p, it = it, it.next {
		n++
		if it.before(best) {
			best, prev = it, p
		}
	}
	return best, prev, n
}

// directMin scans every ring chain for the global minimum — the fallback
// after a fruitless lap — and repositions the cursor at its window.
func (q *calQueue) directMin() (*eventItem, int, *eventItem) {
	var best, bestPrev *eventItem
	bIdx := 0
	for b, head := range q.buckets {
		if head == nil {
			continue
		}
		if it, prev, _ := chainMin(head); best == nil || it.before(best) {
			best, bestPrev, bIdx = it, prev, b
		}
	}
	q.curIdx = q.bucketOf(best.at)
	q.curStart = q.windowStart(best.at)
	return best, bIdx, bestPrev
}
