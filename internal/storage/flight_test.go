package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/account"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/monitor"
	"repro/internal/sched"
)

// flightTraceRun executes one seeded heuristic run with a streaming JSONL
// tracer, optionally with a flight recorder subscribed to it.
func flightTraceRun(t *testing.T, rec *flight.Recorder) ([]byte, *Result) {
	t.Helper()
	reqs, p := smallWorkload(t, 12, 80, 600, 3, 5)
	cfg := smallConfig(12)
	var buf bytes.Buffer
	tr := obs.NewTracer(512)
	tr.SetSink(&buf, false)
	h := sched.Heuristic{Locations: p.Locations, Cost: sched.DefaultCost(cfg.Power), Tracer: tr}
	opts := []RunOption{WithTracer(tr)}
	if rec != nil {
		opts = append(opts, WithFlight(rec))
	}
	res, err := RunOnline(cfg, p.Locations, h, reqs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res
}

// TestFlightRecorderDeterminism pins the recorder's zero-interference
// contract: a run with the flight recorder subscribed to the tracer
// produces a byte-identical event log and an identical Result to the same
// run without it — the ring is an observer, never a participant.
func TestFlightRecorderDeterminism(t *testing.T) {
	t.Parallel()
	refLog, refRes := flightTraceRun(t, nil)
	if len(refLog) == 0 {
		t.Fatal("empty event log")
	}
	rec := flight.New(flight.Config{Capacity: 256, Dir: t.TempDir()})
	log, res := flightTraceRun(t, rec)
	if !bytes.Equal(log, refLog) {
		t.Fatalf("recorder-on event log differs from recorder-off (%d vs %d bytes)", len(log), len(refLog))
	}
	if !reflect.DeepEqual(res, refRes) {
		t.Fatalf("recorder-on Result differs:\n%+v\nvs\n%+v", res, refRes)
	}
	evs, err := obs.ReadJSONL(bytes.NewReader(refLog))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Events() != uint64(len(evs)) {
		t.Fatalf("recorder observed %d events, log holds %d", rec.Events(), len(evs))
	}
	if rec.Dumps() != 0 {
		t.Fatalf("untriggered recorder wrote %d dumps", rec.Dumps())
	}
}

// TestFlightDoctorViolationDump is the incident path end to end: a doctor
// violation on a live run automatically freezes the flight window, and the
// dumped events.bin replays through a fresh doctor suite byte-identically
// with the violation still present. The second input attaches every
// observer at once (recorder, doctor, accountant and collector): the dump
// window must still end at the violating event, and the carbon report and
// metrics export must equal those of the same run without the recorder.
func TestFlightDoctorViolationDump(t *testing.T) {
	t.Parallel()
	reqs, p := smallWorkload(t, 12, 60, 400, 2, 3)
	cfg := smallConfig(12)
	// Inject the violation by lying to the doctor: its replica map pins
	// every block to disk 0, so the first dispatch elsewhere is flagged as
	// a replica-validity violation while the run itself is untouched.
	badLoc := func(core.BlockID) []core.DiskID { return []core.DiskID{0} }
	newSuite := func() *monitor.Suite {
		return monitor.NewSuite(monitor.Config{
			Power: cfg.Power, Mech: cfg.Mech, Policy: cfg.Policy, Locations: badLoc,
		})
	}
	// run executes the seeded run with the doctor plus rec (when non-nil)
	// and, with accounting, a diurnal-grid accountant and a collector.
	type observed struct {
		suite  *monitor.Suite
		carbon account.Report
		export string
	}
	run := func(t *testing.T, rec *flight.Recorder, accounting bool) observed {
		t.Helper()
		o := observed{suite: newSuite()}
		tr := obs.NewTracer(1)
		h := sched.Heuristic{Locations: p.Locations, Cost: sched.DefaultCost(cfg.Power), Tracer: tr}
		opts := []RunOption{WithTracer(tr), WithMonitor(o.suite)}
		if rec != nil {
			opts = append(opts, WithFlight(rec))
		}
		var acct *account.Accumulator
		var col *obs.Collector
		if accounting {
			var err error
			if acct, err = account.NewAccumulator(cfg.Power, account.DiurnalGrid(), account.DefaultCostModel()); err != nil {
				t.Fatal(err)
			}
			col = obs.NewCollector()
			opts = append(opts, WithAccounting(acct), WithCollector(col))
		}
		if _, err := RunOnline(cfg, p.Locations, h, reqs, opts...); err != nil {
			t.Fatal(err)
		}
		if accounting {
			o.carbon, o.export = acct.Finalize(), col.String()
		}
		return o
	}

	for _, accounting := range []bool{false, true} {
		t.Run(fmt.Sprintf("accounting=%v", accounting), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			rec := flight.New(flight.Config{Capacity: 1 << 12, Dir: dir})
			got := run(t, rec, accounting)
			if got.suite.Passed() {
				t.Fatal("injected misconfiguration produced no doctor violation")
			}
			if rec.Dumps() == 0 {
				t.Fatal("doctor violation did not trigger a flight dump")
			}
			if err := rec.Err(); err != nil {
				t.Fatal(err)
			}

			// The first dump's window ends at the first violating event: the
			// recorder observes ahead of the doctor and sweeps triggers last.
			first, err := filepath.Glob(filepath.Join(dir, "flight-001-*"))
			if err != nil || len(first) != 1 {
				t.Fatalf("first dump: %v, %v", first, err)
			}
			d0, err := flight.ReadDump(first[0])
			if err != nil {
				t.Fatal(err)
			}
			firstSeq := got.suite.Violations()[0].Seq
			for _, v := range got.suite.Violations() {
				firstSeq = min(firstSeq, v.Seq)
			}
			if n := len(d0.Events); n == 0 || d0.Events[n-1].Seq != firstSeq {
				t.Fatalf("first dump window (%d events) does not end at the violating event, seq %d", n, firstSeq)
			}

			latest, err := flight.FindLatest(dir)
			if err != nil {
				t.Fatal(err)
			}
			d, err := flight.ReadDump(latest)
			if err != nil {
				t.Fatal(err)
			}
			if d.Meta.Reason != "doctor-replica-validity" {
				t.Fatalf("dump reason %q, want doctor-replica-validity", d.Meta.Reason)
			}
			if len(d.Events) == 0 {
				t.Fatal("dump window is empty")
			}

			// The decoded window re-encodes to the exact bytes on disk: the dump
			// is a standard ESCHOBS2 log, replayable by any reader bit-for-bit.
			raw := []byte(obs.BinaryMagic)
			for _, ev := range d.Events {
				raw = obs.AppendBinary(raw, ev)
			}
			disk, err := os.ReadFile(filepath.Join(latest, "events.bin"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw, disk) {
				t.Fatal("re-encoded window differs from events.bin")
			}

			// Replaying the window through a fresh doctor with the same (bad)
			// config reproduces the violation — the incident is in the window.
			replay := newSuite()
			for _, ev := range d.Events {
				replay.Observe(ev)
			}
			if replay.Passed() {
				t.Fatal("replayed dump window shows no violation")
			}

			if accounting {
				ref := run(t, nil, true)
				if !reflect.DeepEqual(got.carbon, ref.carbon) {
					t.Fatalf("carbon report with the recorder differs:\n%+v\nvs\n%+v", got.carbon, ref.carbon)
				}
				if got.export != ref.export {
					t.Fatalf("metrics export with the recorder differs:\n%s\nvs\n%s", got.export, ref.export)
				}
			}
		})
	}
}
