// Package runobs attaches and closes the observers of one command-line
// run: event log, metrics export, doctor, carbon/cost accountant and
// flight recorder. esched, eschedd and breakeven fill a Spec from their own
// flags, hand the opened Set to the run (Options, or the matching
// serve.Config fields), and Close flushes and reports it the same way.
package runobs

import (
	"bufio"
	"fmt"
	"os"
	"strings"

	"repro/internal/account"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/monitor"
	"repro/internal/sched"
	"repro/internal/storage"
)

// Spec is the observer part of a command line; empty fields attach
// nothing. Events is the event-log path (JSONL, or binary for a .bin
// suffix), Metrics the Prometheus text export path ("-" = stdout), Doctor
// runs the live invariant monitors, Grid and Cost name the carbon grid
// profile and the cost model it is priced with, and FlightDir is the
// flight recorder's dump directory.
type Spec struct {
	Events, Metrics string
	Doctor          bool
	Grid, Cost      string
	FlightDir       string
}

// Set is one run's observers. The exported fields are nil when the Spec
// did not ask for them.
type Set struct {
	// Tracer exists only for Events or Doctor; traced schedulers share it.
	// For Grid or FlightDir alone, storage feeds them its own tracer.
	Tracer     *obs.Tracer
	Collector  *obs.Collector
	Doctor     *monitor.Suite
	Accounting *account.Accumulator
	Recorder   *flight.Recorder

	prog string
	spec Spec
	file *os.File
	buf  *bufio.Writer
}

// Open builds the observers spec asks for, for a run of sys whose blocks
// live where loc says. prog prefixes the progress lines Close prints. col
// is the run's collector when the caller already owns one (eschedd serves
// it on /metrics); otherwise Open creates one for spec.Metrics.
func Open(prog string, spec Spec, sys storage.Config, loc sched.Locator, col *obs.Collector) (*Set, error) {
	s := &Set{prog: prog, spec: spec, Collector: col}
	if spec.Grid != "" {
		g, err := account.ResolveGrid(spec.Grid)
		if err != nil {
			return nil, err
		}
		cm, err := account.ResolveCost(spec.Cost)
		if err != nil {
			return nil, err
		}
		if s.Accounting, err = account.NewAccumulator(sys.Power, g, cm); err != nil {
			return nil, err
		}
	}
	if spec.Events != "" {
		f, err := os.Create(spec.Events)
		if err != nil {
			return nil, err
		}
		s.file = f
		s.buf = bufio.NewWriterSize(f, 1<<20)
		s.Tracer = obs.NewTracer(0)
		s.Tracer.SetSink(s.buf, strings.HasSuffix(spec.Events, ".bin"))
	}
	if spec.Metrics != "" && s.Collector == nil {
		s.Collector = obs.NewCollector()
	}
	if spec.Doctor {
		if s.Tracer == nil {
			// No event log: still trace, so traced schedulers' decisions
			// reach the monitors (the ring itself stays minimal).
			s.Tracer = obs.NewTracer(1)
		}
		s.Doctor = monitor.NewSuite(monitor.Config{
			Power: sys.Power, Mech: sys.Mech, Policy: sys.Policy, Locations: loc,
		})
	}
	if spec.FlightDir != "" {
		s.Recorder = flight.New(flight.Config{Dir: spec.FlightDir, Pprof: true})
	}
	return s, nil
}

// Options attaches the set to a storage run.
func (s *Set) Options() []storage.RunOption {
	return []storage.RunOption{
		storage.WithTracer(s.Tracer),
		storage.WithCollector(s.Collector),
		storage.WithMonitor(s.Doctor),
		storage.WithAccounting(s.Accounting),
		storage.WithFlight(s.Recorder),
	}
}

// Close ends the run's observation and returns runErr, or else the first
// failure it meets. After a successful run it prints the carbon: and cost:
// lines. It always flushes the event log (a failed run keeps its partial
// telemetry), writes the metrics export and reports flight dumps. Last,
// after a successful run, it writes the doctor's report to stderr and
// fails on any violation.
func (s *Set) Close(runErr error) error {
	keep := func(err error) {
		if err != nil && runErr == nil {
			runErr = err
		}
	}
	if s.Accounting != nil && runErr == nil {
		rep := s.Accounting.Finalize()
		fmt.Println(rep.CarbonLine())
		fmt.Println(rep.CostLine())
	}
	if s.file != nil {
		for _, err := range []error{s.Tracer.Flush(), s.buf.Flush(), s.file.Close()} {
			if err != nil {
				keep(fmt.Errorf("event log %s: %w", s.spec.Events, err))
			}
		}
		fmt.Fprintf(os.Stderr, "%s: event log flushed to %s\n", s.prog, s.spec.Events)
	}
	if path := s.spec.Metrics; path == "-" {
		_, err := s.Collector.WriteTo(os.Stdout)
		keep(err)
	} else if path != "" {
		f, err := os.Create(path)
		if err == nil {
			_, err = s.Collector.WriteTo(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			keep(fmt.Errorf("metrics %s: %w", path, err))
		} else {
			fmt.Fprintf(os.Stderr, "%s: metrics snapshot written to %s\n", s.prog, path)
		}
	}
	if rec := s.Recorder; rec != nil {
		// Write a trigger raised after the last observed event, then surface
		// any dump failure (the subscribers cannot return one).
		_, err := rec.MaybeDump()
		keep(err)
		if n := rec.Dumps(); n > 0 {
			fmt.Fprintf(os.Stderr, "%s: flight recorder wrote %d dump(s) under %s (tracelens last %s)\n",
				s.prog, n, s.spec.FlightDir, s.spec.FlightDir)
		}
		keep(rec.Err())
	}
	if s.Doctor != nil && runErr == nil {
		if _, err := s.Doctor.WriteReport(os.Stderr); err != nil {
			return err
		}
		if !s.Doctor.Passed() {
			return fmt.Errorf("doctor: %d invariant violations", s.Doctor.Total())
		}
	}
	return runErr
}
