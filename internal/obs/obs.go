// Package obs is the observability layer of the simulator: a structured
// event tracer, a Prometheus-text-format metrics exporter, and profiling
// hooks shared by the CLI commands.
//
// The package sits between the simulation layers (internal/simkernel,
// internal/diskmodel, internal/sched, internal/storage) and the offline
// reporters (internal/report, cmd/esched, cmd/figures). The layers emit
// into it; nothing in it feeds back into a run, so attaching observability
// can never change a simulation result.
//
// # Tracer
//
// Tracer records the request lifecycle (arrive, dispatch, queue, serve,
// complete), disk power-state transitions with their energy deltas, and
// scheduler decisions with the cost-function terms that drove them. Events
// are held in a pre-sized ring buffer and drained as JSONL or a fixed-width
// binary log. The hot path is gated on an atomic enabled flag and allocates
// nothing when tracing is disabled (all emit helpers are safe on a nil
// *Tracer), so instrumented call sites cost one predictable branch in
// production runs.
//
// Event order is deterministic: the simulator is single-threaded per run,
// events carry (virtual time, sequence number), and the encoders format
// every field canonically — so two runs of the same seeded workload produce
// byte-identical logs regardless of how many workers built the schedule
// (see Scale.Workers and docs/OBSERVABILITY.md).
//
// # Collector
//
// Collector aggregates counters, gauges and histograms (spin-ups, energy
// joules by power state, response-time buckets, queue depths) and renders
// them in the Prometheus text exposition format. It can be snapshotted
// mid-run and is reconciled against the exact end-of-run meter values when
// a run finishes, so exported energy totals match internal/report's
// aggregates exactly.
//
// # Profiles
//
// Profiles bundles the standard pprof/trace flags (-cpuprofile,
// -memprofile, -trace, -pprof) so every command exposes the same profiling
// surface.
package obs

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Kind identifies the type of a traced event.
type Kind uint8

// Event kinds, in rough request-lifecycle order.
const (
	// KindArrive marks a request entering the system.
	KindArrive Kind = iota + 1
	// KindDecision is a scheduler decision: the chosen disk together with
	// the composite cost C(d) and energy term E(d) that selected it. Dec is
	// the decision's run-monotonic identifier.
	KindDecision
	// KindDispatch marks a request being sent to its serving disk; Dec
	// links it to the scheduler decision that chose the disk.
	KindDispatch
	// KindQueue marks a request enqueued on a disk that cannot serve it
	// immediately (busy, spinning up or down, or spun down); Dec links it to
	// the decision that routed the request there.
	KindQueue
	// KindServe marks service beginning on a disk.
	KindServe
	// KindComplete marks a request completion; Latency is the response time.
	KindComplete
	// KindPower is a disk power-state transition; EnergyJ is the energy
	// accrued in the state being left and ImpulseJ any instantaneous
	// transition impulse charged to the state entered. Dec names the
	// scheduler decision that caused the transition (0 = no decision: the
	// idle-threshold expiry or another policy action).
	KindPower
	// KindDrop marks a request that could not be served (no replica
	// locations, or every replica failed).
	KindDrop
	// KindCacheHit marks a read absorbed by the block cache; Latency is the
	// response time charged to the hit.
	KindCacheHit
	// KindEnd closes one disk's accounting at the end of the run: From (and
	// To) hold the final power state, EnergyJ the final accrual settled by
	// the meter's Close. One per disk, so replaying a log reproduces the
	// meters' by-state totals exactly.
	KindEnd
	// KindRunEnd is the run's final event: At is the horizon the exporter
	// reports as sim time and Block holds the kernel's executed-event count
	// (the only i64 payload field free on this kind).
	KindRunEnd
)

var kindNames = [...]string{
	KindArrive:   "arrive",
	KindDecision: "decision",
	KindDispatch: "dispatch",
	KindQueue:    "queue",
	KindServe:    "serve",
	KindComplete: "complete",
	KindPower:    "power",
	KindDrop:     "drop",
	KindCacheHit: "cachehit",
	KindEnd:      "end",
	KindRunEnd:   "runend",
}

// DecisionID identifies one scheduler decision within a run. IDs are
// assigned by the tracer in emission order starting at 1; 0 means "no
// decision" (a policy action such as the idle-threshold expiry, or an
// untraced scheduler). The simulator is deterministic, so a seeded run
// assigns the same IDs at any pipeline worker count.
type DecisionID int64

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one traced occurrence. It is a flat value type — no pointers,
// maps or strings — so the ring buffer holds events without any per-event
// allocation. Fields not meaningful for a Kind are zero.
type Event struct {
	// At is the virtual time of the event.
	At time.Duration
	// Seq is the tracer-assigned sequence number; (At, Seq) is a strict
	// total order over a run's events.
	Seq uint64
	// Kind selects which of the remaining fields are meaningful.
	Kind Kind
	// Disk is the disk involved (InvalidDisk when none).
	Disk core.DiskID
	// Req is the request involved (-1 when none).
	Req core.RequestID
	// Block is the block involved (-1 when none).
	Block core.BlockID
	// From and To are the power states of a KindPower transition.
	From, To core.DiskState
	// Depth is the disk queue depth after a KindQueue event, or the chosen
	// disk's load P(d) for a KindDecision.
	Depth int
	// Latency is the response time of a KindComplete or KindCacheHit.
	Latency time.Duration
	// EnergyJ is the state-accrual energy of a KindPower transition (joules
	// spent in the state being left), the final accrual of a KindEnd, or the
	// energy cost term E(d) of a KindDecision.
	EnergyJ float64
	// Cost is the composite cost C(d) of a KindDecision.
	Cost float64
	// ImpulseJ is the instantaneous transition impulse of a KindPower event
	// (charged to the state entered; non-zero only when the corresponding
	// transition time is zero).
	ImpulseJ float64
	// Dec is the scheduler decision that caused this event, when causality
	// is known: the decision's own ID on KindDecision, the routing decision
	// on KindDispatch/KindQueue, and the waking decision on a KindPower
	// transition it induced. 0 = no causing decision.
	Dec DecisionID
}

// Tracer is a ring-buffered structured event recorder.
//
// Two modes:
//
//   - Flight recorder (no sink): the ring keeps the most recent Cap events;
//     older events are overwritten. Drain with WriteJSONL/WriteBinary.
//   - Streaming (SetSink): the ring is flushed to the sink whenever it
//     fills and on Flush, so a run of any length is captured completely.
//
// A Tracer must only be used from the simulation goroutine (the simulator
// is single-threaded per run); the enabled flag is atomic only so the gate
// is a single cheap load. All emit methods are safe to call on a nil
// *Tracer, which is the zero-cost disabled form.
type Tracer struct {
	enabled   atomic.Bool
	seq       uint64
	decisions uint64 // decision IDs handed out so far; next ID is decisions+1
	ring      []Event
	head      int // index of the oldest buffered event
	n         int // number of buffered events
	dropped   uint64
	sink      io.Writer
	binary    bool
	encBuf    []byte
	err       error
	subs      []func(Event)
	subBuf    [4]func(Event) // backs subs: a run's observers need no allocation
}

// DefaultCapacity is the ring size used when NewTracer is given a
// non-positive capacity: enough for ~8k requests' full lifecycles.
const DefaultCapacity = 1 << 16

// NewTracer returns an enabled tracer with a ring of the given capacity
// (DefaultCapacity if cap <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	t := &Tracer{ring: make([]Event, capacity)}
	t.enabled.Store(true)
	return t
}

// SetSink switches the tracer to streaming mode: buffered events are
// encoded (JSONL, or the binary log format when binary is true) and written
// to w whenever the ring fills and on Flush. Call before the run starts.
// A binary sink is wrapped so the BinaryMagic header is emitted exactly
// once before the first record.
func (t *Tracer) SetSink(w io.Writer, binary bool) {
	if binary {
		w = &BinaryWriter{W: w}
	}
	t.sink = w
	t.binary = binary
}

// Subscribe tees every emitted event, after its sequence number is
// assigned, to fn; subscribers run in subscription order. It is how the
// doctor, accountant and flight recorder watch a live run. Subscriptions
// last the tracer's lifetime, so give each run its own tracer. A disabled
// tracer still costs one branch and zero allocations.
func (t *Tracer) Subscribe(fn func(Event)) {
	if t.subs == nil {
		t.subs = t.subBuf[:0]
	}
	t.subs = append(t.subs, fn)
}

// Enabled reports whether the tracer is recording. A nil tracer is
// disabled.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// SetEnabled toggles recording. Events emitted while disabled are not
// buffered and do not consume sequence numbers.
func (t *Tracer) SetEnabled(on bool) { t.enabled.Store(on) }

// Err returns the first sink write error, if any.
func (t *Tracer) Err() error { return t.err }

// Dropped returns the number of events overwritten before being drained
// (flight-recorder mode only; a streaming tracer drops nothing).
func (t *Tracer) Dropped() uint64 { return t.dropped }

// Len returns the number of events currently buffered.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// Emit records one event, assigning its sequence number. It is a no-op on
// a nil or disabled tracer and never allocates on that path.
func (t *Tracer) Emit(ev Event) {
	if t == nil || !t.enabled.Load() {
		return
	}
	ev.Seq = t.seq
	t.seq++
	if t.n == len(t.ring) {
		if t.sink != nil {
			t.flushLocked()
		} else {
			// Flight recorder: overwrite the oldest event.
			t.head++
			if t.head == len(t.ring) {
				t.head = 0
			}
			t.n--
			t.dropped++
		}
	}
	i := t.head + t.n
	if i >= len(t.ring) {
		i -= len(t.ring)
	}
	t.ring[i] = ev
	t.n++
	for _, fn := range t.subs {
		fn(ev)
	}
}

// Events returns a copy of the buffered events, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil || t.n == 0 {
		return nil
	}
	out := make([]Event, t.n)
	for i := 0; i < t.n; i++ {
		j := t.head + i
		if j >= len(t.ring) {
			j -= len(t.ring)
		}
		out[i] = t.ring[j]
	}
	return out
}

// Flush drains buffered events to the sink (a no-op without one) and
// returns the first write error seen.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	if t.sink != nil && t.n > 0 {
		t.flushLocked()
	}
	return t.err
}

func (t *Tracer) flushLocked() {
	for i := 0; i < t.n; i++ {
		j := t.head + i
		if j >= len(t.ring) {
			j -= len(t.ring)
		}
		if t.binary {
			t.encBuf = AppendBinary(t.encBuf[:0], t.ring[j])
		} else {
			t.encBuf = AppendJSONL(t.encBuf[:0], t.ring[j])
		}
		if _, err := t.sink.Write(t.encBuf); err != nil && t.err == nil {
			t.err = err
		}
	}
	t.head, t.n = 0, 0
}

// WriteJSONL writes the buffered events to w as JSON lines, oldest first.
func (t *Tracer) WriteJSONL(w io.Writer) error { return t.write(w, false) }

// WriteBinary writes the buffered events to w in the binary log format
// (magic header plus fixed-width records), oldest first.
func (t *Tracer) WriteBinary(w io.Writer) error {
	if t == nil {
		return nil
	}
	if _, err := io.WriteString(w, BinaryMagic); err != nil {
		return err
	}
	return t.write(w, true)
}

func (t *Tracer) write(w io.Writer, binary bool) error {
	if t == nil {
		return nil
	}
	var buf []byte
	for i := 0; i < t.n; i++ {
		j := t.head + i
		if j >= len(t.ring) {
			j -= len(t.ring)
		}
		if binary {
			buf = AppendBinary(buf[:0], t.ring[j])
		} else {
			buf = AppendJSONL(buf[:0], t.ring[j])
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// The emit helpers below are the instrumentation points the simulation
// layers call. Each is a single branch when tracing is off.

// Arrive records a request entering the system.
func (t *Tracer) Arrive(now time.Duration, req core.RequestID, block core.BlockID) {
	if t == nil || !t.enabled.Load() {
		return
	}
	t.Emit(Event{At: now, Kind: KindArrive, Disk: core.InvalidDisk, Req: req, Block: block})
}

// Decision records a scheduler decision with its cost-function terms and
// returns the decision's assigned ID (0 on a nil or disabled tracer, where
// nothing is recorded). block is the block whose replica set the decision
// chose from, so log consumers can check replica validity of the decision
// itself (-1 when unknown).
func (t *Tracer) Decision(now time.Duration, req core.RequestID, block core.BlockID, d core.DiskID, cost, energyJ float64, load int) DecisionID {
	if t == nil || !t.enabled.Load() {
		return 0
	}
	t.decisions++
	id := DecisionID(t.decisions)
	t.Emit(Event{At: now, Kind: KindDecision, Disk: d, Req: req, Block: block,
		Cost: cost, EnergyJ: energyJ, Depth: load, Dec: id})
	return id
}

// DecisionCount returns the number of decision IDs assigned so far; the
// next Decision call (on an enabled tracer) gets DecisionCount()+1. Nil-safe.
func (t *Tracer) DecisionCount() uint64 {
	if t == nil {
		return 0
	}
	return t.decisions
}

// Dispatch records a request being sent to its serving disk; dec is the
// scheduler decision that chose it (0 if untraced).
func (t *Tracer) Dispatch(now time.Duration, req core.RequestID, block core.BlockID, d core.DiskID, dec DecisionID) {
	if t == nil || !t.enabled.Load() {
		return
	}
	t.Emit(Event{At: now, Kind: KindDispatch, Disk: d, Req: req, Block: block, Dec: dec})
}

// Queue records a request enqueued behind depth-1 others on a disk; dec is
// the decision that routed it there (0 if untraced).
func (t *Tracer) Queue(now time.Duration, req core.RequestID, d core.DiskID, depth int, dec DecisionID) {
	if t == nil || !t.enabled.Load() {
		return
	}
	t.Emit(Event{At: now, Kind: KindQueue, Disk: d, Req: req, Block: -1, Depth: depth, Dec: dec})
}

// Serve records service beginning for a request.
func (t *Tracer) Serve(now time.Duration, req core.RequestID, d core.DiskID) {
	if t == nil || !t.enabled.Load() {
		return
	}
	t.Emit(Event{At: now, Kind: KindServe, Disk: d, Req: req, Block: -1})
}

// Complete records a request completion with its response time.
func (t *Tracer) Complete(now time.Duration, req core.RequestID, d core.DiskID, latency time.Duration) {
	if t == nil || !t.enabled.Load() {
		return
	}
	t.Emit(Event{At: now, Kind: KindComplete, Disk: d, Req: req, Block: -1, Latency: latency})
}

// Power records a disk power-state transition and the energy it settles:
// stateJ is the accrual in the state being left, impulseJ any instantaneous
// transition impulse charged to the state entered. dec names the scheduler
// decision that caused the transition (0 for policy actions such as the
// idle-threshold expiry).
func (t *Tracer) Power(now time.Duration, d core.DiskID, from, to core.DiskState, stateJ, impulseJ float64, dec DecisionID) {
	if t == nil || !t.enabled.Load() {
		return
	}
	t.Emit(Event{At: now, Kind: KindPower, Disk: d, Req: -1, Block: -1,
		From: from, To: to, EnergyJ: stateJ, ImpulseJ: impulseJ, Dec: dec})
}

// Drop records a request that could not be served.
func (t *Tracer) Drop(now time.Duration, req core.RequestID, block core.BlockID) {
	if t == nil || !t.enabled.Load() {
		return
	}
	t.Emit(Event{At: now, Kind: KindDrop, Disk: core.InvalidDisk, Req: req, Block: block})
}

// CacheHit records a read absorbed by the block cache; lat is the response
// time charged to the hit.
func (t *Tracer) CacheHit(now time.Duration, req core.RequestID, block core.BlockID, lat time.Duration) {
	if t == nil || !t.enabled.Load() {
		return
	}
	t.Emit(Event{At: now, Kind: KindCacheHit, Disk: core.InvalidDisk, Req: req, Block: block, Latency: lat})
}

// End closes one disk's energy accounting: state is the power state the
// disk finished the run in and j the final accrual settled by the meter's
// Close. Emitted once per disk, in disk order, before RunEnd.
func (t *Tracer) End(now time.Duration, d core.DiskID, state core.DiskState, j float64) {
	if t == nil || !t.enabled.Load() {
		return
	}
	t.Emit(Event{At: now, Kind: KindEnd, Disk: d, Req: -1, Block: -1,
		From: state, To: state, EnergyJ: j})
}

// RunEnd records the end of the run: now is the horizon reported as sim
// time and fired the kernel's executed-event count.
func (t *Tracer) RunEnd(now time.Duration, fired uint64) {
	if t == nil || !t.enabled.Load() {
		return
	}
	t.Emit(Event{At: now, Kind: KindRunEnd, Disk: core.InvalidDisk, Req: -1,
		Block: core.BlockID(fired)})
}
