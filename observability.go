package repro

import (
	"repro/internal/account"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/monitor"
	"repro/internal/sched"
	"repro/internal/simkernel"
	"repro/internal/storage"
)

// This file exposes the observability layer (internal/obs): structured
// event tracing, Prometheus-text-format metrics export and profiling
// hooks. See docs/OBSERVABILITY.md for the event schema and metric
// catalog.

// Observability types.
type (
	// Tracer is a ring-buffered structured event recorder; attach one to a
	// run with WithTracer. All emit methods are safe on a nil *Tracer.
	Tracer = obs.Tracer
	// TraceEvent is one traced occurrence (flat value type).
	TraceEvent = obs.Event
	// TraceKind identifies the type of a traced event.
	TraceKind = obs.Kind
	// Collector aggregates counters, gauges and histograms and renders them
	// in the Prometheus text exposition format.
	Collector = obs.Collector
	// SimMetrics is the simulator's pre-registered metric catalog.
	SimMetrics = obs.RunMetrics
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
	// DoctorViolation is one observed invariant violation, pinned to the
	// event sequence number, disk, request and decision involved.
	DoctorViolation = monitor.Violation
)

// NewDoctor returns a runtime-verification suite for the given system
// model. Feed it events with Doctor.Observe (or attach it to a live run
// with WithDoctor) and collect the verdict with Doctor.Passed.
func NewDoctor(cfg DoctorConfig) *Doctor { return monitor.NewSuite(cfg) }

// WithDoctor tees a live run's event stream into the suite and finalizes
// it (including the bit-exact energy cross-check against the run's result)
// when the run ends. Violations never alter the run; callers inspect
// Doctor.Passed afterwards.
func WithDoctor(d *Doctor) RunOption { return storage.WithMonitor(d) }

// Carbon & cost accounting (internal/account): gCO2e and dollar
// attribution of a run's disk energy. See the "Carbon & cost accounting"
// section of docs/OBSERVABILITY.md.
type (
	// GridProfile is a piecewise-constant grid carbon-intensity profile
	// (gCO2e/kWh over virtual run time, optionally periodic).
	GridProfile = account.GridProfile
	// CostModel prices a run in dollars: $/kWh energy tariff plus
	// straight-line per-disk capex amortization.
	CostModel = account.CostModel
	// CarbonAccountant integrates the event stream against a grid profile
	// and cost model; live runs and log replays produce byte-identical
	// reports.
	CarbonAccountant = account.Accumulator
	// CarbonReport is the finalized carbon/cost accounting of a run.
	CarbonReport = account.Report
)

// ResolveGridProfile maps a -grid flag value to a profile: "flat",
// "diurnal" (alias "solar"), "coal", or a path to a JSON profile file.
func ResolveGridProfile(name string) (*GridProfile, error) { return account.ResolveGrid(name) }

// ResolveCostModel maps a -cost flag value to a model: "default" or a
// path to a JSON cost-model file.
func ResolveCostModel(name string) (CostModel, error) { return account.ResolveCost(name) }

// NewCarbonAccountant returns an accumulator pricing runs under cfg's
// power model against the given grid profile and cost model.
func NewCarbonAccountant(cfg SystemConfig, grid *GridProfile, cost CostModel) (*CarbonAccountant, error) {
	return account.NewAccumulator(cfg.Power, grid, cost)
}

// WithAccounting tees a live run's event stream into the accountant and
// finalizes it when the run ends; when a collector is also attached, the
// run binds the accountant to it, so the carbon/cost metric families are
// registered and reconciled.
func WithAccounting(a *CarbonAccountant) RunOption { return storage.WithAccounting(a) }

// Flight recorder (internal/obs/flight): an always-on ring of the most
// recent events that freezes into a replayable ESCHOBS2 snapshot (plus
// telemetry and pprof bundles) when something goes wrong. See the "Engine
// introspection & the flight recorder" section of docs/OBSERVABILITY.md.
type (
	// FlightRecorder is the always-on incident ring; attach one to a run
	// with WithFlight and trigger dumps with FlightRecorder.RequestDump.
	FlightRecorder = flight.Recorder
	// FlightConfig parameterizes a FlightRecorder (ring capacity, dump
	// directory, pprof bundling, telemetry snapshot source).
	FlightConfig = flight.Config
	// FlightDump is one decoded dump directory: manifest, event window and
	// raw telemetry snapshot.
	FlightDump = flight.Dump
	// KernelTelemetry is the simulation kernel's introspection snapshot:
	// per-shard event/queue/pool counters and, when timing is armed, the
	// exec/queue/stall wall-clock attribution behind `tracelens shards`.
	KernelTelemetry = simkernel.KernelStats
)

// NewFlightRecorder returns a flight recorder; it touches no files until a
// dump triggers.
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder { return flight.New(cfg) }

// WithFlight tees a live run's event stream into the recorder's ring (one
// slot store per event, no allocation) and materialises requested dumps
// inline on the observing goroutine. When a Doctor rides the same run,
// every violation automatically requests a dump.
func WithFlight(r *FlightRecorder) RunOption { return storage.WithFlight(r) }

// ReadFlightDump decodes a dump directory written by a FlightRecorder,
// verifying the event window against its manifest.
func ReadFlightDump(dir string) (*FlightDump, error) { return flight.ReadDump(dir) }

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
