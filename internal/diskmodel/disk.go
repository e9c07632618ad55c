package diskmodel

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/simkernel"
)

// DoneFunc is invoked when a disk completes a request.
type DoneFunc func(req core.Request, completedAt time.Duration)

// Disk is one simulated disk: a FIFO request queue, the mechanical
// service-time model, and the five-state power machine of Section 2.1
// driven by a power-management policy (2CPM in the paper).
type Disk struct {
	id     core.DiskID
	mech   MechConfig
	mt     mechTab // mech compiled for the per-request hot path
	pcfg   power.Config
	policy power.Policy
	eng    *simkernel.Engine
	meter  *power.Meter
	onDone DoneFunc

	state   core.DiskState
	onTrans func(d core.DiskID, now time.Duration, from, to core.DiskState, e obs.EnergyDelta)
	tr      *obs.Tracer
	// queue[qhead:] is the live FIFO window into a preallocated, reused
	// buffer: the head pops by advancing qhead (no copy, no allocation) and
	// the tail compacts the window down only when the buffer is full, so
	// steady-state queueing costs zero heap traffic.
	queue      []core.Request
	qhead      int
	inFlight   bool
	inFlightRq core.Request
	idleTimer  simkernel.Handle
	serviceEv  simkernel.Handle
	transition simkernel.Handle
	headLBA    int64
	ascending  bool
	disc       Discipline
	lastReq    time.Duration // T_last: when the disk last received a request
	everReq    bool
	served     int
	failed     bool
	failures   int
	closed     bool

	// Event callbacks bound once at construction: scheduling a service
	// completion or power transition reuses these instead of allocating a
	// closure (or method-value wrapper) per event.
	svcFn      simkernel.Event
	idleFn     simkernel.Event
	spunUpFn   simkernel.Event
	spunDownFn simkernel.Event

	// spinCause is the scheduler decision whose request initiated the
	// in-progress spin-up cycle; it stamps the transitions into and out of
	// spin-up so logs carry explicit causality. wakeCause remembers the
	// first decision to arrive mid-spin-down (2CPM cannot abort the
	// transition, so that decision pays for the spin-up that follows).
	// Both are zero when the transition was a policy action.
	spinCause obs.DecisionID
	wakeCause obs.DecisionID
}

// Options configures optional Disk behavior.
type Options struct {
	// InitialState is the power state at time zero; defaults to standby
	// (the paper's assumption). Always-on baselines start idle.
	InitialState core.DiskState
	// Discipline selects the queue service order; defaults to FIFO.
	Discipline Discipline
	// OnTransition, when non-nil, observes every power-state change with
	// the energy it settles (for state-timeline logging, visualization and
	// live metric export).
	OnTransition func(d core.DiskID, now time.Duration, from, to core.DiskState, e obs.EnergyDelta)
	// Tracer, when non-nil and enabled, receives the disk's structured
	// events: request queueing, service starts, completions and power
	// transitions. A nil Tracer costs one branch per instrumentation
	// point.
	Tracer *obs.Tracer
}

// New creates a disk attached to the simulation engine. onDone may be nil.
func New(id core.DiskID, mech MechConfig, pcfg power.Config, policy power.Policy, eng *simkernel.Engine, onDone DoneFunc, opts Options) (*Disk, error) {
	if err := mech.Validate(); err != nil {
		return nil, err
	}
	if err := pcfg.Validate(); err != nil {
		return nil, err
	}
	initial := opts.InitialState
	if initial == 0 {
		initial = core.StateStandby
	}
	if initial != core.StateStandby && initial != core.StateIdle {
		return nil, fmt.Errorf("diskmodel: initial state must be standby or idle, got %v", initial)
	}
	disc := opts.Discipline
	if disc == 0 {
		disc = FIFO
	}
	if !disc.Valid() {
		return nil, fmt.Errorf("diskmodel: invalid queue discipline %v", disc)
	}
	d := &Disk{
		id:        id,
		mech:      mech,
		mt:        mech.compile(),
		pcfg:      pcfg,
		policy:    policy,
		eng:       eng,
		meter:     power.NewMeter(pcfg, initial, eng.Now()),
		onDone:    onDone,
		state:     initial,
		headLBA:   -1,
		ascending: true,
		disc:      disc,
		onTrans:   opts.OnTransition,
		tr:        opts.Tracer,
		queue:     make([]core.Request, 0, initialQueueCap),
	}
	d.svcFn = d.onServiceDone
	d.idleFn = d.onIdleTimeout
	d.spunUpFn = d.onSpunUp
	d.spunDownFn = d.onSpunDown
	if initial == core.StateIdle {
		d.armIdleTimer()
	}
	return d, nil
}

// initialQueueCap preallocates each disk's queue buffer; bursts deeper than
// this grow it once and the grown buffer is reused for the rest of the run.
const initialQueueCap = 16

// queued returns the number of requests waiting (excluding in-flight).
func (d *Disk) queued() int { return len(d.queue) - d.qhead }

// enqueue appends to the FIFO window, compacting the buffer in place when
// the dead prefix is all that stands between the tail and capacity.
func (d *Disk) enqueue(req core.Request) {
	if d.qhead > 0 && len(d.queue) == cap(d.queue) {
		n := copy(d.queue, d.queue[d.qhead:])
		d.queue = d.queue[:n]
		d.qhead = 0
	}
	d.queue = append(d.queue, req)
}

// takeAt removes and returns the i-th waiting request (relative to the live
// window). The head pops in O(1); interior removals (SSTF/SCAN picks) shift
// the tail down, preserving arrival order exactly as the old copying queue
// did — bit-identical service sequences, zero allocations.
func (d *Disk) takeAt(i int) core.Request {
	idx := d.qhead + i
	req := d.queue[idx]
	if i == 0 {
		d.queue[idx] = core.Request{}
		d.qhead++
		if d.qhead == len(d.queue) {
			d.queue = d.queue[:0]
			d.qhead = 0
		}
		return req
	}
	copy(d.queue[idx:], d.queue[idx+1:])
	d.queue[len(d.queue)-1] = core.Request{}
	d.queue = d.queue[:len(d.queue)-1]
	return req
}

// ID returns the disk's identifier.
func (d *Disk) ID() core.DiskID { return d.id }

// State returns the current power state.
func (d *Disk) State() core.DiskState { return d.state }

// Load returns the current number of requests on the disk (queued plus in
// service) — the paper's performance cost P(d_k), Eq. 7.
func (d *Disk) Load() int {
	n := d.queued()
	if d.inFlight {
		n++
	}
	return n
}

// LastRequestTime returns T_last, the time the disk received its most
// recent request; ok is false if it never received one.
func (d *Disk) LastRequestTime() (time.Duration, bool) {
	return d.lastReq, d.everReq
}

// Served returns the number of completed requests.
func (d *Disk) Served() int { return d.served }

// Meter exposes the disk's energy meter for reporting.
func (d *Disk) Meter() *power.Meter { return d.meter }

func (d *Disk) setState(now time.Duration, s core.DiskState) {
	d.setStateCause(now, s, 0)
}

func (d *Disk) setStateCause(now time.Duration, s core.DiskState, cause obs.DecisionID) {
	stateJ, impulseJ := d.meter.Transition(now, s)
	if d.onTrans != nil {
		d.onTrans(d.id, now, d.state, s, obs.EnergyDelta{StateJ: stateJ, ImpulseJ: impulseJ})
	}
	d.tr.Power(now, d.id, d.state, s, stateJ, impulseJ, cause)
	d.state = s
}

// Submit enqueues a request at the current virtual time and wakes the disk
// if necessary. Requests arriving while the disk is spun down or spinning
// down incur the spin-up penalty (Section 1, problem (a)).
func (d *Disk) Submit(req core.Request) { d.SubmitCaused(req, 0) }

// SubmitCaused is Submit carrying the scheduler decision that routed the
// request here; the decision ID is stamped on the queue event and on any
// spin-up the arrival triggers, making wake causality explicit in the log.
func (d *Disk) SubmitCaused(req core.Request, cause obs.DecisionID) {
	if d.closed {
		panic(fmt.Sprintf("diskmodel: Submit on closed disk %d", d.id))
	}
	if d.failed {
		panic(fmt.Sprintf("diskmodel: Submit on failed disk %d", d.id))
	}
	now := d.eng.Now()
	d.lastReq = now
	d.everReq = true
	d.enqueue(req)
	d.tr.Queue(now, req.ID, d.id, d.Load(), cause)
	switch d.state {
	case core.StateStandby:
		d.beginSpinUp(now, cause)
	case core.StateIdle:
		d.eng.Cancel(d.idleTimer)
		d.startNext(now)
	case core.StateSpinDown:
		// The spin-down completion handler notices the non-empty queue
		// and immediately spins back up; the first arrival of the cycle
		// is the one that forces it.
		if d.wakeCause == 0 {
			d.wakeCause = cause
		}
	case core.StateSpinUp, core.StateActive:
		// Queued; drained on spin-up completion or service completion.
	}
}

func (d *Disk) beginSpinUp(now time.Duration, cause obs.DecisionID) {
	d.spinCause = cause
	d.setStateCause(now, core.StateSpinUp, cause)
	d.transition = d.eng.After(d.pcfg.SpinUpTime, d.spunUpFn)
}

func (d *Disk) onSpunUp(now time.Duration) {
	// Enter idle for accounting symmetry, then immediately start service
	// if work is queued. The transition out of spin-up settles the spin-up
	// energy, so it carries the decision that initiated the cycle.
	cause := d.spinCause
	d.spinCause = 0
	d.setStateCause(now, core.StateIdle, cause)
	if d.queued() > 0 {
		d.startNext(now)
	} else {
		d.armIdleTimer()
	}
}

// startNext begins servicing the queue head, or parks the disk idle when
// the queue is empty.
func (d *Disk) startNext(now time.Duration) {
	if d.queued() == 0 {
		if d.state != core.StateIdle {
			d.setState(now, core.StateIdle)
		}
		d.armIdleTimer()
		return
	}
	pick, ascending := pickIndex(d.disc, d.queue[d.qhead:], d.headLBA, d.ascending)
	req := d.takeAt(pick)
	d.ascending = ascending
	d.inFlight = true
	d.inFlightRq = req
	if d.state != core.StateActive {
		d.setState(now, core.StateActive)
	}
	d.tr.Serve(now, req.ID, d.id)
	svc := d.mt.serviceTime(d.headLBA, req.LBA, req.Size)
	size := req.Size
	if size <= 0 {
		size = d.mech.DefaultIO
	}
	d.headLBA = req.LBA + size/d.mech.SectorSize
	d.serviceEv = d.eng.After(svc, d.svcFn)
}

// onServiceDone completes the in-flight request and chains to the next one.
// It is bound once as svcFn; the request travels in d.inFlightRq instead of
// a per-service closure capture.
func (d *Disk) onServiceDone(done time.Duration) {
	req := d.inFlightRq
	d.inFlight = false
	d.inFlightRq = core.Request{}
	d.served++
	d.tr.Complete(done, req.ID, d.id, done-req.Arrival)
	if d.onDone != nil {
		d.onDone(req, done)
	}
	d.startNext(done)
}

func (d *Disk) armIdleTimer() {
	idle, ok := d.policy.SpinDownAfter()
	if !ok {
		return // always-on: never spin down
	}
	d.idleTimer = d.eng.After(idle, d.idleFn)
}

func (d *Disk) onIdleTimeout(now time.Duration) {
	if d.state != core.StateIdle || d.Load() > 0 {
		// Stale timer (a request raced in at the same instant).
		return
	}
	d.setState(now, core.StateSpinDown)
	d.transition = d.eng.After(d.pcfg.SpinDownTime, d.spunDownFn)
}

func (d *Disk) onSpunDown(now time.Duration) {
	if d.queued() > 0 {
		// A request arrived mid-spin-down: complete the cycle and go
		// straight back up (2CPM disks cannot abort a transition). The
		// first mid-spin-down arrival is charged with the spin-up.
		cause := d.wakeCause
		d.wakeCause = 0
		d.beginSpinUp(now, cause)
		return
	}
	d.wakeCause = 0
	d.setState(now, core.StateStandby)
}

// Failed reports whether the disk is currently failed.
func (d *Disk) Failed() bool { return d.failed }

// Failures returns how many times the disk has failed.
func (d *Disk) Failures() int { return d.failures }

// Fail models an abrupt disk failure (power loss) at the current virtual
// time: every pending event is cancelled, the in-flight request and the
// queue are returned to the caller for re-dispatch elsewhere, and the disk
// sits unpowered (standby accounting) until Repair. Failing a failed disk
// is a no-op returning nil.
func (d *Disk) Fail() []core.Request {
	if d.closed {
		panic(fmt.Sprintf("diskmodel: Fail on closed disk %d", d.id))
	}
	if d.failed {
		return nil
	}
	d.failed = true
	d.failures++
	d.eng.Cancel(d.idleTimer)
	d.eng.Cancel(d.serviceEv)
	d.eng.Cancel(d.transition)
	var drained []core.Request
	if d.inFlight {
		drained = append(drained, d.inFlightRq)
		d.inFlight = false
		d.inFlightRq = core.Request{}
	}
	drained = append(drained, d.queue[d.qhead:]...)
	d.queue = d.queue[:0]
	d.qhead = 0
	d.headLBA = -1 // head position lost with the power
	d.spinCause, d.wakeCause = 0, 0
	if d.state != core.StateStandby {
		d.setState(d.eng.Now(), core.StateStandby)
	}
	return drained
}

// Repair brings a failed disk back, spun down; the next request triggers a
// normal spin-up. Repairing a healthy disk is a no-op.
func (d *Disk) Repair() {
	if d.closed {
		panic(fmt.Sprintf("diskmodel: Repair on closed disk %d", d.id))
	}
	d.failed = false
}

// Close finalizes energy accounting at the current virtual time, emitting
// a terminal "end" event carrying the final state's energy accrual so a
// replayed log reproduces the meter totals exactly. The disk must be
// drained (no queued or in-flight requests).
func (d *Disk) Close() Stats {
	if !d.closed {
		if d.Load() > 0 {
			panic(fmt.Sprintf("diskmodel: Close with %d requests outstanding on disk %d", d.Load(), d.id))
		}
		now := d.eng.Now()
		j := d.meter.Close(now)
		d.tr.End(now, d.id, d.state, j)
		d.closed = true
	}
	return d.Stats()
}

// Stats summarizes the disk's accounting so far.
func (d *Disk) Stats() Stats {
	s := Stats{
		Disk:      d.id,
		Energy:    d.meter.Energy(),
		SpinUps:   d.meter.SpinUps(),
		SpinDowns: d.meter.SpinDowns(),
		Served:    d.served,
	}
	for st := core.StateStandby; st <= core.StateSpinDown; st++ {
		s.TimeIn[st] = d.meter.TimeIn(st)
		s.EnergyIn[st] = d.meter.EnergyIn(st)
	}
	return s
}

// Stats is a per-disk accounting summary.
type Stats struct {
	Disk      core.DiskID
	Energy    float64 // joules
	SpinUps   int
	SpinDowns int
	Served    int
	TimeIn    [core.StateSpinDown + 1]time.Duration
	// EnergyIn breaks Energy down by power state (zero-duration transition
	// impulses count toward the transition state entered).
	EnergyIn [core.StateSpinDown + 1]float64
}

// Total returns the total accounted wall time.
func (s Stats) Total() time.Duration {
	var t time.Duration
	for _, d := range s.TimeIn {
		t += d
	}
	return t
}

// StandbyFraction returns the fraction of time spent in standby, the
// paper's per-disk sort key in Figures 9 and 17.
func (s Stats) StandbyFraction() float64 {
	total := s.Total()
	if total == 0 {
		return 0
	}
	return float64(s.TimeIn[core.StateStandby]) / float64(total)
}
