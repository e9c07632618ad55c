package storage

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
)

// FailureEvent takes a disk offline abruptly at At for Duration: pending
// requests on the disk are re-dispatched to surviving replicas and the
// disk rejoins (spun down) afterwards. This exercises the fault-tolerance
// role of the replication the paper's scheduler piggybacks on.
type FailureEvent struct {
	Disk     core.DiskID
	At       time.Duration
	Duration time.Duration
}

// WithFailures injects disk failures into a run. Events for the same disk
// must not overlap in time.
func WithFailures(events ...FailureEvent) RunOption {
	return func(o *runOptions) { o.failures = append(o.failures, events...) }
}

// validateFailures checks event sanity against the disk population.
func validateFailures(events []FailureEvent, numDisks int) error {
	byDisk := map[core.DiskID][]FailureEvent{}
	for _, ev := range events {
		if ev.Disk < 0 || int(ev.Disk) >= numDisks {
			return fmt.Errorf("storage: failure event for nonexistent disk %d", ev.Disk)
		}
		if ev.At < 0 || ev.Duration <= 0 {
			return fmt.Errorf("storage: failure event %+v has invalid timing", ev)
		}
		byDisk[ev.Disk] = append(byDisk[ev.Disk], ev)
	}
	for d, evs := range byDisk {
		sort.Slice(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
		for i := 1; i < len(evs); i++ {
			if evs[i].At < evs[i-1].At+evs[i-1].Duration {
				return fmt.Errorf("storage: overlapping failure events on disk %d", d)
			}
		}
	}
	return nil
}

// armFailures schedules fail and repair events; redispatch is called for
// every request drained from a failing disk.
func (s *system) armFailures(events []FailureEvent, redispatch func(core.Request)) error {
	if err := validateFailures(events, len(s.disks)); err != nil {
		return err
	}
	for _, ev := range events {
		ev := ev
		s.eng.At(ev.At, func(time.Duration) {
			for _, req := range s.disks[ev.Disk].Fail() {
				redispatch(req)
			}
		})
		s.eng.At(ev.At+ev.Duration, func(time.Duration) {
			s.disks[ev.Disk].Repair()
		})
	}
	return nil
}
