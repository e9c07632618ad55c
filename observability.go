package repro

import (
	"repro/internal/obs"
	"repro/internal/obs/monitor"
	"repro/internal/sched"
	"repro/internal/storage"
)

// This file exposes the observability layer (internal/obs): structured
// event tracing, Prometheus-text-format metrics export, profiling hooks
// and the runtime-invariant doctor. See docs/OBSERVABILITY.md for the
// event schema and metric catalog.

// Observability types.
type (
	// Tracer is a ring-buffered structured event recorder; attach one to a
	// run with WithTracer. All emit methods are safe on a nil *Tracer.
	Tracer = obs.Tracer
	// Collector aggregates counters, gauges and histograms and renders them
	// in the Prometheus text exposition format.
	Collector = obs.Collector
	// Profiles bundles the standard pprof/trace CLI flags.
	Profiles = obs.Profiles
)

// NewTracer returns an enabled tracer with a ring of the given capacity
// (obs.DefaultCapacity if capacity <= 0). Without a sink it is a flight
// recorder keeping the most recent events; Tracer.SetSink streams instead.
func NewTracer(capacity int) *Tracer { return obs.NewTracer(capacity) }

// NewCollector returns an empty metrics registry; pass it to runs with
// WithCollector and snapshot it any time with Collector.WriteTo.
func NewCollector() *Collector { return obs.NewCollector() }

// WithTracer attaches a structured event tracer to a simulation run.
func WithTracer(tr *Tracer) RunOption { return storage.WithTracer(tr) }

// WithCollector registers and live-updates the simulator metric catalog on
// c during a run; end-of-run values are reconciled to the exact report
// aggregates.
func WithCollector(c *Collector) RunOption { return storage.WithCollector(c) }

// Runtime verification (internal/obs/monitor): streaming invariant
// monitors over the event stream. See the "Runtime invariants & the
// doctor" section of docs/OBSERVABILITY.md.
type (
	// Doctor is a runtime-verification suite: a set of streaming invariant
	// monitors (power-state legality, bit-exact energy conservation,
	// request conservation, replica validity, 2CPM threshold compliance,
	// latency sanity) checked over a run's event stream.
	Doctor = monitor.Suite
	// DoctorConfig parameterizes a Doctor with the run's physical model.
	DoctorConfig = monitor.Config
)

// NewDoctor returns a runtime-verification suite for the given system
// model. Attach it to a live run with WithDoctor and collect the verdict
// with Doctor.Passed.
func NewDoctor(cfg DoctorConfig) *Doctor { return monitor.NewSuite(cfg) }

// WithDoctor tees a live run's event stream into the suite and finalizes
// it (including the bit-exact energy cross-check against the run's result)
// when the run ends. Violations never alter the run; callers inspect
// Doctor.Passed afterwards.
func WithDoctor(d *Doctor) RunOption { return storage.WithMonitor(d) }

// NewTracedHeuristicScheduler is NewHeuristicScheduler with decision
// tracing: every placement emits a decision event carrying the winning
// composite cost C(d), its energy term E(d) and the chosen disk's load.
func NewTracedHeuristicScheduler(loc Locator, cost CostConfig, tr *Tracer) OnlineScheduler {
	return sched.Heuristic{Locations: loc, Cost: cost, Tracer: tr}
}

// NewTracedWSCScheduler is NewWSCScheduler with per-request decision
// tracing.
func NewTracedWSCScheduler(loc Locator, cost CostConfig, tr *Tracer) BatchScheduler {
	return sched.WSC{Locations: loc, Cost: cost, Tracer: tr, Scratch: &sched.CoverScratch{}}
}
