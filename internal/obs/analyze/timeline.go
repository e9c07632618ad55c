package analyze

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// Segment is one contiguous stay in a power state on a disk's timeline.
type Segment struct {
	State core.DiskState
	Start time.Duration
	// End is when the disk left the state (or the run-end close). Open is
	// true when the log ended before the segment did.
	End  time.Duration
	Open bool
	// EntryImpulseJ is the instantaneous energy charged to this state when
	// it was entered (zero-duration spin transitions only).
	EntryImpulseJ float64
	// ExitStateJ is the accrual settled for the time spent in this state,
	// known once the segment closes (the exiting transition or the disk's
	// end event carries it).
	ExitStateJ float64
	// Cause is the scheduler decision stamped on the transition that
	// entered this state: the decision whose dispatch woke the disk for
	// spin-up segments, 0 for policy actions (idle-threshold expiry) and
	// untraced schedulers.
	Cause obs.DecisionID
}

// EnergyJ is the segment's total energy: entry impulse plus settled
// accrual. Presentation only — exact by-state totals come from
// DiskTimeline.EnergyBy, which preserves the meter's addition order.
func (s Segment) EnergyJ() float64 { return s.EntryImpulseJ + s.ExitStateJ }

// Duration returns the segment length (zero while Open).
func (s Segment) Duration() time.Duration {
	if s.Open {
		return 0
	}
	return s.End - s.Start
}

// DiskTimeline is one disk's reconstructed power-state history plus its
// replayed energy accounting.
type DiskTimeline struct {
	Disk     core.DiskID
	Segments []Segment
	// EnergyBy replays the disk's meter by state: the same additions in the
	// same order as power.Meter, so it matches Stats.EnergyIn bit for bit
	// on a complete log. Energy is the matching total (Stats.Energy).
	EnergyBy  [core.StateSpinDown + 1]float64
	Energy    float64
	SpinUps   int
	SpinDowns int
	// Served counts completions; Response collects their latencies; Depths
	// the queue depth seen at each enqueue.
	Served   int
	Response metrics.ResponseTimes
	Depths   []int
	// FinalState and Closed come from the disk's end event.
	FinalState core.DiskState
	Closed     bool
}

// apply folds one disk-side event into the timeline. Events arrive in
// emission order, so segments build chronologically.
func (t *DiskTimeline) apply(ev *obs.Event) error {
	switch ev.Kind {
	case obs.KindPower:
		if t.Closed {
			return fmt.Errorf("analyze: disk %d: power event seq %d after end event", t.Disk, ev.Seq)
		}
		if n := len(t.Segments); n == 0 {
			// First transition reveals the initial state, held since t=0.
			t.Segments = append(t.Segments, Segment{State: ev.From, Open: true})
		} else if cur := &t.Segments[n-1]; cur.State != ev.From {
			return fmt.Errorf("analyze: disk %d: transition %s→%s at seq %d but timeline is in %s",
				t.Disk, ev.From, ev.To, ev.Seq, cur.State)
		}
		cur := &t.Segments[len(t.Segments)-1]
		cur.End, cur.Open, cur.ExitStateJ = ev.At, false, ev.EnergyJ
		// Replay the meter's additions in its order: accrual to the state
		// left, then any impulse to the state entered.
		t.EnergyBy[ev.From] += ev.EnergyJ
		t.Energy += ev.EnergyJ
		if ev.ImpulseJ != 0 {
			t.EnergyBy[ev.To] += ev.ImpulseJ
			t.Energy += ev.ImpulseJ
		}
		switch ev.To {
		case core.StateSpinUp:
			t.SpinUps++
		case core.StateSpinDown:
			t.SpinDowns++
		}
		t.Segments = append(t.Segments, Segment{
			State: ev.To, Start: ev.At, Open: true,
			EntryImpulseJ: ev.ImpulseJ, Cause: ev.Dec,
		})
	case obs.KindEnd:
		if t.Closed {
			return fmt.Errorf("analyze: disk %d: second end event at seq %d", t.Disk, ev.Seq)
		}
		if len(t.Segments) == 0 {
			// Disk never transitioned: one segment covering the whole run.
			t.Segments = append(t.Segments, Segment{State: ev.From, Open: true})
		}
		cur := &t.Segments[len(t.Segments)-1]
		if cur.State != ev.From {
			return fmt.Errorf("analyze: disk %d: end event in %s at seq %d but timeline is in %s",
				t.Disk, ev.From, ev.Seq, cur.State)
		}
		cur.End, cur.Open, cur.ExitStateJ = ev.At, false, ev.EnergyJ
		t.EnergyBy[ev.From] += ev.EnergyJ
		t.Energy += ev.EnergyJ
		t.FinalState, t.Closed = ev.From, true
	case obs.KindQueue:
		t.Depths = append(t.Depths, ev.Depth)
	case obs.KindComplete:
		t.Served++
		t.Response.Add(ev.Latency)
	case obs.KindServe:
		// Nothing beyond lifecycle bookkeeping.
	}
	return nil
}

// DepthHeatmap buckets every queue-depth observation per disk into the
// exporter's depth buckets, returning one row per disk in run disk order
// plus the bucket upper bounds; the final column counts observations above
// the last bound. The raw data behind a queue-depth heatmap.
func (r *Run) DepthHeatmap() (bounds []float64, rows [][]int) {
	bounds = obs.DepthBuckets()
	rows = make([][]int, len(r.DiskOrder))
	for i, d := range r.DiskOrder {
		row := make([]int, len(bounds)+1)
		for _, depth := range r.Disks[d].Depths {
			placed := false
			for b, ub := range bounds {
				if float64(depth) <= ub {
					row[b]++
					placed = true
					break
				}
			}
			if !placed {
				row[len(bounds)]++
			}
		}
		rows[i] = row
	}
	return bounds, rows
}
