// Package monitor is the simulator's runtime-verification layer: a suite
// of streaming invariant checkers over the canonical event stream
// (internal/obs). The paper's claims rest on physical invariants — legal
// power-state transitions with their exact spin durations, energy totals
// that are the integral of each disk's state timeline, request
// conservation, replica-valid scheduling decisions, 2CPM threshold
// compliance and mechanically-possible latencies — and the suite checks
// all of them continuously, either live (subscribed to a Tracer with
// Tracer.Subscribe) or offline over a recorded JSONL/binary log.
//
// The suite follows the observability layer's design rule: it consumes
// events and never feeds back into a run. A nil or absent suite costs the
// tracer one branch and zero allocations; violations are exceptional and
// may allocate freely.
//
// Every violation carries the triggering event's sequence number, virtual
// time, disk, request and causal decision ID, so a FAIL points directly at
// the log line (tracelens timeline/attribute) that explains it.
package monitor

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/diskmodel"
	"repro/internal/obs"
	"repro/internal/power"
)

// Monitor names, in report order.
const (
	MonitorOrder     = "event-order"
	MonitorPower     = "power-machine"
	MonitorEnergy    = "energy-conservation"
	MonitorWindows   = "windowed-energy"
	MonitorRequests  = "request-conservation"
	MonitorReplicas  = "replica-validity"
	MonitorThreshold = "2cpm-threshold"
	MonitorLatency   = "latency-sanity"
)

// windowMonitor anchors the windowed-energy reconciliation check
// (Suite.VerifyWindows) in the registry. It is stream-passive: the
// carbon-accounting integrator (internal/account) consumes the same event
// stream independently, and the check compares its final cumulative
// by-state reading — the telescoped sum of its grid windows — against the
// meters' totals at end of run. The report shows SKIP until an accounting
// layer exercises it.
type windowMonitor struct{ exercised bool }

func (*windowMonitor) name() string               { return MonitorWindows }
func (*windowMonitor) observe(*Suite, *obs.Event) {}
func (*windowMonitor) finish(*Suite)              {}

// Config parameterizes a Suite with the run's physical model. The power
// configuration is required (it defines legal transition durations and the
// accrual arithmetic); the rest degrade gracefully: a nil Policy defaults
// to 2CPM over Power, a zero Mech disables the mechanical latency floor,
// and a nil Locations skips the replica-validity monitor.
type Config struct {
	// Power is the electrical model the run used; transition-duration and
	// energy-conservation checks recompute from it bit-exactly.
	Power power.Config
	// Mech provides the mechanical latency lower bound
	// (MechConfig.MinServiceTime). A zero value (RPM 0) disables the floor
	// but keeps the latency bookkeeping checks.
	Mech diskmodel.MechConfig
	// Policy is the power-management policy the run used (nil = 2CPM over
	// Power); the threshold monitor checks every spin-down against it.
	Policy power.Policy
	// Locations is the placement lookup; when non-nil every decision and
	// dispatch must target a replica of its block.
	Locations func(core.BlockID) []core.DiskID
	// NonFIFO relaxes the per-disk FIFO service-order check for runs using
	// an alternative queue discipline (SSTF, SCAN).
	NonFIFO bool
	// MaxViolations bounds the violations kept per monitor (default 8);
	// counting past the cap is unbounded.
	MaxViolations int
}

// Violation is one invariant breach, pinned to the event that exposed it.
type Violation struct {
	Monitor string
	Seq     uint64
	At      time.Duration
	Disk    core.DiskID    // InvalidDisk when no disk is involved
	Req     core.RequestID // -1 when no request is involved
	Dec     obs.DecisionID // causal decision, 0 when unknown
	Msg     string
}

// String renders the violation on one line.
func (v Violation) String() string {
	s := fmt.Sprintf("[%s] seq=%d t=%v", v.Monitor, v.Seq, v.At)
	if v.Disk != core.InvalidDisk {
		s += fmt.Sprintf(" disk=%d", v.Disk)
	}
	if v.Req >= 0 {
		s += fmt.Sprintf(" req=%d", v.Req)
	}
	if v.Dec != 0 {
		s += fmt.Sprintf(" dec=%d", v.Dec)
	}
	return s + ": " + v.Msg
}

// invariant is one streaming checker. observe sees every event in order;
// finish runs once after the stream ends.
type invariant interface {
	name() string
	observe(s *Suite, ev *obs.Event)
	finish(s *Suite)
}

// Suite runs a set of invariant monitors over one event stream. Create
// with NewSuite, feed with Observe (directly, via Tracer.Subscribe, or
// ObserveAll over a decoded log), then call Finish once and inspect
// Violations / WriteReport. A Suite is single-goroutine, like the
// simulator and the Tracer.
type Suite struct {
	cfg      Config
	mons     []invariant
	skipped  []string // monitors omitted by configuration, with reasons
	counts   []uint64 // total violations per monitor
	kept     [][]Violation
	cur      obs.Event
	events   uint64
	lastSeq  uint64
	lastAt   time.Duration
	hasEnd   bool
	finished bool
	// onViolation, when set, fires synchronously on every recorded
	// violation (see SetOnViolation).
	onViolation func(Violation)
}

// NewSuite builds the full monitor suite for a run described by cfg.
func NewSuite(cfg Config) *Suite {
	if cfg.Policy == nil {
		cfg.Policy = power.TwoCompetitive{Config: cfg.Power}
	}
	if cfg.MaxViolations <= 0 {
		cfg.MaxViolations = 8
	}
	s := &Suite{cfg: cfg}
	s.mons = append(s.mons,
		&orderMonitor{},
		newPowerMonitor(cfg.Power),
		newEnergyMonitor(cfg.Power),
		&windowMonitor{},
		newRequestMonitor(!cfg.NonFIFO),
	)
	if cfg.Locations != nil {
		s.mons = append(s.mons, &replicaMonitor{locations: cfg.Locations})
	} else {
		s.skipped = append(s.skipped, MonitorReplicas+" (no placement lookup)")
	}
	s.mons = append(s.mons, newThresholdMonitor(cfg.Policy))
	lm := &latencyMonitor{disks: map[core.DiskID]*latencyDisk{}, arrivals: map[core.RequestID]time.Duration{}}
	if cfg.Mech.RPM > 0 {
		lm.minService = cfg.Mech.MinServiceTime()
	} else {
		s.skipped = append(s.skipped, "latency floor (no mechanics provided)")
	}
	s.mons = append(s.mons, lm)
	s.counts = make([]uint64, len(s.mons))
	s.kept = make([][]Violation, len(s.mons))
	return s
}

// Observe feeds one event to every monitor. Events must arrive in emission
// order (the tracer's, or a decoded log's). Subscribe it for live
// monitoring: tracer.Subscribe(suite.Observe).
func (s *Suite) Observe(ev obs.Event) {
	s.cur = ev
	s.events++
	for _, m := range s.mons {
		m.observe(s, &s.cur)
	}
	s.lastSeq = ev.Seq
	if ev.At > s.lastAt {
		s.lastAt = ev.At
	}
	if ev.Kind == obs.KindRunEnd {
		s.hasEnd = true
	}
}

// ObserveAll feeds a decoded event log (see analyze.Load) through the
// suite in order.
func (s *Suite) ObserveAll(events []obs.Event) {
	for _, ev := range events {
		s.Observe(ev)
	}
}

// Finish runs the end-of-stream checks (unterminated requests, disks
// without end-of-run accounting). It is idempotent; Observe must not be
// called after it. Returns all kept violations, as Violations does.
func (s *Suite) Finish() []Violation {
	if !s.finished {
		s.finished = true
		for _, m := range s.mons {
			m.finish(s)
		}
	}
	return s.Violations()
}

// monitorIndex returns the registry index of the named monitor (-1 when
// the monitor was skipped by configuration).
func (s *Suite) monitorIndex(name string) int {
	for i, m := range s.mons {
		if m.name() == name {
			return i
		}
	}
	return -1
}

// add records a violation for monitor i, keeping at most MaxViolations per
// monitor but counting all of them.
func (s *Suite) add(i int, seq uint64, at time.Duration, disk core.DiskID, req core.RequestID, dec obs.DecisionID, format string, args ...any) {
	s.counts[i]++
	if len(s.kept[i]) < s.cfg.MaxViolations || s.onViolation != nil {
		v := Violation{
			Monitor: s.mons[i].name(), Seq: seq, At: at,
			Disk: disk, Req: req, Dec: dec, Msg: fmt.Sprintf(format, args...),
		}
		if len(s.kept[i]) < s.cfg.MaxViolations {
			s.kept[i] = append(s.kept[i], v)
		}
		if s.onViolation != nil {
			s.onViolation(v)
		}
	}
}

// SetOnViolation registers a hook called synchronously on every recorded
// violation (including ones beyond the per-monitor keep cap). It is the
// flight-recorder trigger point: the hook runs on the observing goroutine,
// inside Observe/Finish, so it must not re-enter the suite.
func (s *Suite) SetOnViolation(fn func(Violation)) { s.onViolation = fn }

// addEv records a violation pinned to ev.
func (s *Suite) addEv(i int, ev *obs.Event, format string, args ...any) {
	s.add(i, ev.Seq, ev.At, ev.Disk, ev.Req, ev.Dec, format, args...)
}

// monIdx finds the index of monitor m in the registry. Monitors capture it
// lazily on first violation to avoid carrying back-pointers.
func (s *Suite) monIdx(m invariant) int {
	for i, reg := range s.mons {
		if reg == m {
			return i
		}
	}
	panic("monitor: unregistered invariant")
}

// Events returns the number of events observed.
func (s *Suite) Events() uint64 { return s.events }

// Complete reports whether a run-end marker was observed.
func (s *Suite) Complete() bool { return s.hasEnd }

// Passed reports whether no monitor recorded any violation.
func (s *Suite) Passed() bool {
	for _, n := range s.counts {
		if n > 0 {
			return false
		}
	}
	return true
}

// Total returns the total violation count across monitors (including
// violations beyond the per-monitor keep cap).
func (s *Suite) Total() uint64 {
	var n uint64
	for _, c := range s.counts {
		n += c
	}
	return n
}

// Count returns the violation count for one monitor by name.
func (s *Suite) Count(name string) uint64 {
	if i := s.monitorIndex(name); i >= 0 {
		return s.counts[i]
	}
	return 0
}

// Violations returns the kept violations in monitor registry order.
func (s *Suite) Violations() []Violation {
	var out []Violation
	for _, vs := range s.kept {
		out = append(out, vs...)
	}
	return out
}

// EnergyByState returns the per-state energy totals integrated from the
// observed event stream, accumulated with the meters' addition order
// (per-disk in event order, disks summed in ascending ID order) so a
// correct log reproduces storage.Result.EnergyByState bit for bit.
func (s *Suite) EnergyByState() [core.StateSpinDown + 1]float64 {
	em := s.energyMonitor()
	var out [core.StateSpinDown + 1]float64
	ids := make([]core.DiskID, 0, len(em.disks))
	for d := range em.disks {
		ids = append(ids, d)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, d := range ids {
		for st := core.StateStandby; st <= core.StateSpinDown; st++ {
			out[st] += em.disks[d].by[st]
		}
	}
	return out
}

// VerifyResult cross-checks the run's reported by-state energy totals
// against the stream integral: any state whose total is not bit-identical
// records an energy-conservation violation. Call it after the run (live
// mode, with Result.EnergyByState) or against an independent replay
// (offline mode, with analyze.Run.EnergyByState()).
func (s *Suite) VerifyResult(byState [core.StateSpinDown + 1]float64) {
	got := s.EnergyByState()
	i := s.monitorIndex(MonitorEnergy)
	for st := core.StateStandby; st <= core.StateSpinDown; st++ {
		if got[st] != byState[st] {
			s.add(i, s.lastSeq, s.lastAt, core.InvalidDisk, -1, 0,
				"run reports %v J in %v, log integrates to %v J (diff %g)",
				byState[st], st, got[st], byState[st]-got[st])
		}
	}
}

func (s *Suite) energyMonitor() *energyMonitor {
	return s.mons[s.monitorIndex(MonitorEnergy)].(*energyMonitor)
}

// VerifyWindows cross-checks the carbon accounting's windowed energy
// against the meters: `integrated` is the accounting integrator's final
// cumulative by-state reading (by construction the telescoped sum of its
// grid-window energies), `byState` the run's reported meter totals. Any
// state that is not bit-identical records a windowed-energy violation.
// Storage calls it at end of run whenever both a monitor and an
// accounting accumulator are attached.
func (s *Suite) VerifyWindows(integrated, byState [core.StateSpinDown + 1]float64) {
	i := s.monitorIndex(MonitorWindows)
	s.mons[i].(*windowMonitor).exercised = true
	for st := core.StateStandby; st <= core.StateSpinDown; st++ {
		if integrated[st] != byState[st] {
			s.add(i, s.lastSeq, s.lastAt, core.InvalidDisk, -1, 0,
				"windowed accounting integrates %v J in %v, meter reports %v J (diff %g)",
				integrated[st], st, byState[st], integrated[st]-byState[st])
		}
	}
}

// WriteReport renders one PASS/FAIL line per monitor, the kept violations
// for failing monitors, and a summary line.
func (s *Suite) WriteReport(w io.Writer) (int64, error) {
	var n int64
	pf := func(format string, args ...any) error {
		k, err := fmt.Fprintf(w, format, args...)
		n += int64(k)
		return err
	}
	for i, m := range s.mons {
		if wm, ok := m.(*windowMonitor); ok && !wm.exercised && s.counts[i] == 0 {
			if err := pf("doctor: SKIP %-20s (no accounting attached)\n", m.name()); err != nil {
				return n, err
			}
			continue
		}
		if s.counts[i] == 0 {
			if err := pf("doctor: PASS %-20s\n", m.name()); err != nil {
				return n, err
			}
			continue
		}
		if err := pf("doctor: FAIL %-20s %d violations\n", m.name(), s.counts[i]); err != nil {
			return n, err
		}
		for _, v := range s.kept[i] {
			if err := pf("  %s\n", v); err != nil {
				return n, err
			}
		}
		if extra := s.counts[i] - uint64(len(s.kept[i])); extra > 0 {
			if err := pf("  ... %d more\n", extra); err != nil {
				return n, err
			}
		}
	}
	for _, sk := range s.skipped {
		if err := pf("doctor: SKIP %s\n", sk); err != nil {
			return n, err
		}
	}
	status := "PASS"
	if !s.Passed() {
		status = "FAIL"
	}
	err := pf("doctor: %s — %d events, %d violations\n", status, s.events, s.Total())
	return n, err
}
