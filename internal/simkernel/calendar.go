package simkernel

import (
	"math"
	"math/bits"
	"time"
)

// calQueue is a calendar queue (Brown, CACM 1988) with a ladder-style far
// tier, specialized for the kernel's eventItems. The near tier is a ring of
// buckets covering exactly one lap of virtual time, [curStart, limit):
// bucket i holds only items from its own window, unsorted — a push is a
// plain append, min extraction linearly scans the cursor bucket's inline
// keys (a handful of contiguous slots), and removal swaps the last slot
// into the hole. Items at or beyond limit wait in an unsorted far tier and are
// admitted in bulk when the ring drains — each admission pass is O(far)
// with no allocation, so enqueue and dequeue stay O(1) amortized regardless
// of queue size. The split is what survives fleet workloads, whose
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
// Cancellation is lazy, exactly like the heap path: items keep their
// cancelled flag and are reaped when they surface at the front.
type calQueue struct {
	buckets [][]calSlot
	mask    int  // len(buckets)-1; bucket count is a power of two
	shift   uint // bucket width is 1<<shift nanoseconds
	n       int  // all queued items, both tiers, including cancelled ones
	nNear   int  // items in the ring

	// far holds items with at >= limit, unsorted. limit is base plus one
	// full lap of the ring; base is the lap's origin. Every near item lies
	// in [base, limit) — the strict one-lap invariant — so a bucket only
	// ever holds items from its own window and never aliased ones a lap
	// apart. Pushes before base rebase the lap (the kernel never schedules
	// into the past of its clock, so this is a safeguard, not a hot path).
	far   []*eventItem
	base  time.Duration
	limit time.Duration

	// Cursor state: the sweep is positioned at bucket curIdx, which covers
	// virtual times [curStart, curStart+width). Pops only ever move the
	// cursor forward; a push behind curStart rewinds it (the kernel pushes
	// in the past of the cursor only after a sparse-queue jump).
	curIdx   int
	curStart time.Duration

	// Peek/Pop pairs dominate the shard event loop, so findMin memoizes its
	// result; any mutation invalidates it.
	memo    *eventItem
	memoB   int
	memoPos int

	// Width calibration: gapEWMA tracks the recent inter-pop gap; ops/cost
	// meter the slots the per-pop min scans touch. scratch stages items
	// during rebuilds so bucket and far backing arrays are reused.
	lastPop time.Duration
	gapEWMA uint64 // ns, ~last 16 pops
	ops     int    // pops since the last calibration check
	cost    int    // slots touched by searches and insertions since then
	stable  int    // pops since the bucket count last changed
	scratch []*eventItem

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

// calSlot pairs an item with an inline copy of its ordering key: the
// per-bucket min scans touch only the contiguous slot array, never the
// pooled items they point at.
type calSlot struct {
	at  time.Duration
	seq uint64
	it  *eventItem
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
	// this many pops at the current count. Rebuilds that keep the count
	// reuse every backing array and allocate nothing; letting the count
	// ping-pong with each burst/idle regime would reallocate the ring (and
	// all its bucket slices) every cycle.
	calCountHysteresis = 4096
)

// inFar marks an item parked in the far tier. Distinct from `fired` so
// stale-handle checks keep working; never a valid bucket index.
const inFar = -3

func newCalQueue() *calQueue {
	q := &calQueue{}
	q.init()
	return q
}

// init readies a zero calQueue (e.g. one embedded by value in a shard).
func (q *calQueue) init() {
	q.shift = 20 // ~1ms buckets until the first calibration learns better
	q.rebuild(calMinBuckets, q.shift, 0)
}

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
// Buckets are unsorted, so redistribution is a single append pass; backing
// arrays — buckets, bucket slices, the far slice — are reused via the
// scratch buffer, so steady-state rebuilds allocate nothing.
func (q *calQueue) rebuild(count int, shift uint, start time.Duration) {
	q.scratch = q.scratch[:0]
	for b, bucket := range q.buckets {
		for i := range bucket {
			q.scratch = append(q.scratch, bucket[i].it)
		}
		q.buckets[b] = bucket[:0]
	}
	q.scratch = append(q.scratch, q.far...)
	q.far = q.far[:0]

	if count != len(q.buckets) {
		// Preserve bucket backing arrays across count changes. A shrink
		// only truncates the header slice, so the tail headers — and the
		// bucket arrays they point at — stay alive in its capacity; a
		// regrowth within capacity gets them back allocation-free. The
		// capacities are the steady-state occupancy the workload already
		// taught us, and burst/idle regime swings retoggle the same counts.
		if count <= cap(q.buckets) {
			q.buckets = q.buckets[:count]
		} else {
			nb := make([][]calSlot, count)
			copy(nb, q.buckets[:cap(q.buckets)])
			q.buckets = nb
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
	for _, it := range q.scratch {
		q.place(it)
	}
	q.rebuilds++
	if len(q.far) > q.farHW {
		q.farHW = len(q.far)
	}
}

// place routes one item to its tier; n is not touched.
func (q *calQueue) place(it *eventItem) {
	if it.at >= q.limit {
		it.index = inFar
		q.far = append(q.far, it)
		return
	}
	b := q.bucketOf(it.at)
	it.index = b
	q.buckets[b] = appendSlot(q.buckets[b], calSlot{at: it.at, seq: it.seq, it: it})
	q.nNear++
}

// appendSlot is append with a one-shot starting capacity. Rings hold up to
// a million bucket headers across all shards, and letting each grow through
// the 1→2→4→8 doubling ladder makes slice warmup the top allocation site of
// a whole fleet run; one 8-slot allocation replaces the first four.
func appendSlot(bucket []calSlot, s calSlot) []calSlot {
	if cap(bucket) == 0 {
		bucket = make([]calSlot, 0, 8)
	}
	return append(bucket, s)
}

// Push inserts an item. The item's at and seq must already be set.
func (q *calQueue) Push(it *eventItem) {
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
	if it.at >= q.limit {
		it.index = inFar
		q.far = append(q.far, it)
		if len(q.far) > q.farHW {
			q.farHW = len(q.far)
		}
		return
	}
	if q.nNear >= len(q.buckets)*calGrowFactor && len(q.buckets) < calMaxBuckets {
		q.rebuild(len(q.buckets)*2, q.shift, q.curStart)
		if it.at >= q.limit { // a wider ring cannot shrink the horizon, but stay safe
			it.index = inFar
			q.far = append(q.far, it)
			return
		}
	}
	b := q.bucketOf(it.at)
	it.index = b
	q.buckets[b] = appendSlot(q.buckets[b], calSlot{at: it.at, seq: it.seq, it: it})
	q.nNear++
	if it.at < q.curStart {
		// The cursor has swept past this item's window (possible after a
		// sparse-queue jump far into the future); rewind so the sweep sees it.
		q.curIdx = q.bucketOf(it.at)
		q.curStart = q.windowStart(it.at)
	}
}

// Peek returns the minimum item by (at, seq) without removing it, or nil
// when the queue is empty. Cancelled items are returned like live ones;
// the caller reaps them (mirroring the heap path's reapCancelled).
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
	it, b, pos := q.findMin()
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
	// Swap-remove: buckets are unsorted, so the last slot fills the hole.
	bucket := q.buckets[b]
	last := len(bucket) - 1
	bucket[pos] = bucket[last]
	bucket[last] = calSlot{}
	q.buckets[b] = bucket[:last]
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

// findMin locates the minimum item and its bucket/slot, migrating the far
// tier into the ring first whenever the ring is empty (every far item sits
// at or beyond the ring's horizon, so the ring always holds the minimum).
func (q *calQueue) findMin() (*eventItem, int, int) {
	if q.n == 0 {
		return nil, 0, 0
	}
	if q.memo != nil {
		return q.memo, q.memoB, q.memoPos
	}
	if q.nNear == 0 {
		q.migrate()
	}
	it, b, pos := q.searchMin()
	q.memo, q.memoB, q.memoPos = it, b, pos
	return it, b, pos
}

// migrate advances the ring to the far tier's earliest window. The width
// comes from the pop-rate EWMA — the regime the queue is actually popping
// in — because the far population's span is routinely poisoned by one
// far-future outlier (a rack's next burst tick seconds out behind µs-spaced
// service events): a span-derived width would smear the whole upcoming
// burst into one bucket. The span estimate is only the cold-start fallback.
// If the chosen horizon still leaves items far, they are admitted by a
// later migrate, each pass O(far) and allocation-free; the cursor jumps
// straight to the earliest far window, so sparse phases cost one migrate
// per cluster, not one per lap.
func (q *calQueue) migrate() {
	minAt, maxAt := q.far[0].at, q.far[0].at
	for _, it := range q.far[1:] {
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
	// Count changes reuse preserved backing arrays, so resizing here only
	// buys cheaper rebuild sweeps; Push's occupancy growth restores a big
	// ring within one doubling cascade when the next burst arrives.
	count := bucketCountFor(len(q.far))
	shift := q.popShift()
	if shift == ^uint(0) {
		shift = q.shift
		if span := uint64(maxAt - minAt); span > 0 {
			ideal := span * 4 / uint64(len(q.far))
			if ideal == 0 {
				ideal = 1
			}
			shift = clampShift(uint(bits.Len64(ideal)) - 1)
		}
	}
	q.cost += len(q.far)
	q.migrations++
	q.rebuild(count, shift, minAt)
}

// searchMin sweeps the cursor forward one bucket window at a time. The
// first non-empty bucket holds the global ring minimum, because the
// one-lap invariant confines every bucket's items to its own window — so
// the sweep skips empty headers and then min-scans one bucket's inline
// keys. The scan length is charged to the calibration cost meter: deep
// buckets mean the width has gone stale for the density at the cursor.
// A fruitless full lap is only possible if the invariant was disturbed
// (pushes into the past of a rewound cursor); the direct scan restores it
// by repositioning the cursor.
func (q *calQueue) searchMin() (*eventItem, int, int) {
	width := time.Duration(1) << q.shift
	idx, start := q.curIdx, q.curStart
	for lap := 0; lap <= q.mask; lap++ {
		q.cost++
		if bucket := q.buckets[idx]; len(bucket) > 0 {
			if bucket[0].at < start+width {
				q.curIdx, q.curStart = idx, start
				pos := bucketMin(bucket)
				q.cost += len(bucket)
				return bucket[pos].it, idx, pos
			}
		}
		idx = (idx + 1) & q.mask
		start += width
	}
	q.cost += len(q.buckets)
	return q.directMin()
}

// bucketMin returns the slot index of the bucket's (at, seq) minimum.
func bucketMin(bucket []calSlot) int {
	pos := 0
	at, seq := bucket[0].at, bucket[0].seq
	for i := 1; i < len(bucket); i++ {
		s := &bucket[i]
		if s.at < at || (s.at == at && s.seq < seq) {
			pos, at, seq = i, s.at, s.seq
		}
	}
	return pos
}

// directMin scans every ring slot for the global minimum — the fallback
// after a fruitless lap — and repositions the cursor at its window.
func (q *calQueue) directMin() (*eventItem, int, int) {
	var best *calSlot
	bIdx, bPos := 0, 0
	for b, bucket := range q.buckets {
		if len(bucket) == 0 {
			continue
		}
		pos := bucketMin(bucket)
		it := &bucket[pos]
		if best == nil || it.at < best.at || (it.at == best.at && it.seq < best.seq) {
			best, bIdx, bPos = it, b, pos
		}
	}
	q.curIdx = q.bucketOf(best.at)
	q.curStart = q.windowStart(best.at)
	return best.it, bIdx, bPos
}
