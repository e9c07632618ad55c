// Package repro is an energy-aware disk storage system scheduler and
// simulator: a from-scratch Go reproduction of "Exploiting Replication for
// Energy-Aware Scheduling in Disk Storage Systems" (Chou, Kim, Rotem;
// ICDCS 2011).
//
// The library schedules read requests across the existing replicas of each
// block so that as many disks as possible stay spun down under a
// fixed-threshold power manager (2CPM), without moving any data. It
// provides:
//
//   - the paper's five schedulers: Random and Static baselines, the online
//     cost-function Heuristic, the weighted-set-cover batch scheduler, and
//     the offline MWIS pipeline with exact and greedy solvers;
//   - a discrete-event storage-system simulator (disk mechanics, power
//     states, 2CPM) replacing the paper's OMNeT++/DiskSim setup;
//   - synthetic Cello-like and Financial1-like workload generators plus
//     SPC and SRT-text trace parsers for real traces;
//   - runtime observability: event tracing, metrics export and the
//     invariant doctor.
//
// The harness regenerating every figure of the paper's evaluation is
// cmd/figures (internal/experiments); this package does not expose it.
//
// Quick start (ExampleRunOnline in example_test.go runs it, with the
// errors checked):
//
//	plc, _ := repro.GeneratePlacement(repro.PlacementConfig{
//		NumDisks: 12, NumBlocks: 500, ReplicationFactor: 3, ZipfExponent: 1, Seed: 1,
//	})
//	reqs := repro.CelloLike(1000, 500, 1)
//	cfg := repro.DefaultSystemConfig()
//	cfg.NumDisks = 12
//	res, _ := repro.RunOnline(cfg, plc.Locations,
//		repro.NewHeuristicScheduler(plc.Locations, repro.DefaultCost(cfg.Power)), reqs)
//	fmt.Printf("served %d requests, energy below always-on: %v\n",
//		res.Served, res.NormalizedEnergy() < 1)
package repro

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/dpm"
	"repro/internal/offline"
	"repro/internal/placement"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Core domain types (Table 1 of the paper).
type (
	// Request is a read I/O request r_i against a replicated block.
	Request = core.Request
	// RequestID identifies a request.
	RequestID = core.RequestID
	// BlockID identifies a data item.
	BlockID = core.BlockID
	// DiskID identifies a disk d_k.
	DiskID = core.DiskID
	// Schedule maps every request to its serving disk.
	Schedule = core.Schedule
)

// StateIdle is the spinning, idle disk power state: the initial state of
// an always-on run.
const StateIdle = core.StateIdle

// Power management.
type (
	// PowerConfig holds disk power parameters (Figure 5).
	PowerConfig = power.Config
	// PowerPolicy decides when idle disks spin down.
	PowerPolicy = power.Policy
)

// DefaultPowerConfig returns the evaluation's power model (Cheetah 15K.5
// mechanics with Barracuda-class power figures).
func DefaultPowerConfig() PowerConfig { return power.DefaultConfig() }

// ToyPowerConfig returns the simplified model of the paper's worked
// examples (1 W idle, free instantaneous transitions, 5 s breakeven).
func ToyPowerConfig() PowerConfig { return power.ToyConfig() }

// TwoCompetitivePolicy returns the 2CPM policy: spin down after the
// breakeven time E_up/down / P_I.
func TwoCompetitivePolicy(cfg PowerConfig) PowerPolicy { return power.TwoCompetitive{Config: cfg} }

// AlwaysOnPolicy never spins disks down (the normalization baseline).
func AlwaysOnPolicy() PowerPolicy { return power.AlwaysOn{} }

// Placement.
type (
	// Placement is an immutable block-to-replica-locations map.
	Placement = placement.Placement
	// PlacementConfig parameterizes the Section 4.2 synthetic layout.
	PlacementConfig = placement.GenerateConfig
)

// GeneratePlacement builds the evaluation layout: Zipf-skewed originals,
// uniformly spread replicas on distinct disks.
func GeneratePlacement(cfg PlacementConfig) (*Placement, error) { return placement.Generate(cfg) }

// NewPlacement builds a placement from explicit per-block locations
// (original first).
func NewPlacement(numDisks int, locs [][]DiskID) (*Placement, error) {
	return placement.New(numDisks, locs)
}

// Workloads.

// CelloLike generates a bursty request stream with the HP Cello trace's
// characteristics (Section 4.1). It panics when numRequests < 0, or when
// numBlocks <= 0 and numRequests > 0.
func CelloLike(numRequests, numBlocks int, seed int64) []Request {
	return workload.CelloLike(numRequests, numBlocks, seed)
}

// FinancialLike generates a smoother OLTP stream with the Financial1
// trace's characteristics. It panics on the sizes CelloLike panics on.
func FinancialLike(numRequests, numBlocks int, seed int64) []Request {
	return workload.FinancialLike(numRequests, numBlocks, seed)
}

// WorkloadStats summarizes a request stream.
type WorkloadStats = workload.Stats

// AnalyzeWorkload computes arrival statistics for a request stream.
func AnalyzeWorkload(reqs []Request) WorkloadStats { return workload.Analyze(reqs) }

// Traces.

// TraceFormat selects an on-disk trace format.
type TraceFormat int

// Supported trace formats.
const (
	// FormatSPC is the UMass storage repository format (Financial1):
	// "ASU,LBA,Size,Opcode,Timestamp".
	FormatSPC TraceFormat = iota + 1
	// FormatCelloText is a whitespace text rendering of HP SRT traces:
	// "<seconds> <device> <lba> <bytes> <R|W>".
	FormatCelloText
)

// LoadTrace parses a real trace and converts it to a request stream the
// way the paper does: writes dropped, each unique (device, LBA) pair one
// block, at most maxRequests reads (0 = all). It returns the stream and
// the number of distinct blocks.
func LoadTrace(r io.Reader, format TraceFormat, maxRequests int) ([]Request, int, error) {
	var recs []trace.Record
	var err error
	switch format {
	case FormatSPC:
		recs, err = trace.ReadSPC(r)
	case FormatCelloText:
		recs, err = trace.ReadCelloText(r)
	default:
		return nil, 0, fmt.Errorf("repro: unknown trace format %d", format)
	}
	if err != nil {
		return nil, 0, err
	}
	reqs, blocks := trace.ToRequests(recs, trace.ConvertOptions{MaxRequests: maxRequests})
	return reqs, blocks, nil
}

// WriteTrace renders a request stream to an on-disk trace format.
func WriteTrace(w io.Writer, format TraceFormat, reqs []Request) error {
	recs := trace.FromRequests(reqs)
	switch format {
	case FormatSPC:
		return trace.WriteSPC(w, recs)
	case FormatCelloText:
		return trace.WriteCelloText(w, recs)
	default:
		return fmt.Errorf("repro: unknown trace format %d", format)
	}
}

// Schedulers.
type (
	// OnlineScheduler assigns each request on arrival.
	OnlineScheduler = sched.Online
	// BatchScheduler assigns queued batches at interval boundaries.
	BatchScheduler = sched.Batch
	// CostConfig parameterizes the composite cost function C(d) of Eq. 6.
	CostConfig = sched.CostConfig
	// Locator resolves a block to its replica locations.
	Locator = sched.Locator
)

// DefaultCost returns the evaluation's cost parameters (alpha=0.2 with the
// beta balance point for joule-scale energies).
func DefaultCost(p PowerConfig) CostConfig { return sched.DefaultCost(p) }

// NewRandomScheduler returns the uniform-replica baseline.
func NewRandomScheduler(loc Locator, seed int64) OnlineScheduler { return sched.NewRandom(loc, seed) }

// NewStaticScheduler returns the original-location baseline.
func NewStaticScheduler(loc Locator) OnlineScheduler { return sched.Static{Locations: loc} }

// NewHeuristicScheduler returns the online energy-aware scheduler
// (Section 3.3).
func NewHeuristicScheduler(loc Locator, cost CostConfig) OnlineScheduler {
	return sched.Heuristic{Locations: loc, Cost: cost}
}

// NewWSCScheduler returns the weighted-set-cover batch scheduler
// (Section 3.2).
func NewWSCScheduler(loc Locator, cost CostConfig) BatchScheduler {
	return sched.WSC{Locations: loc, Cost: cost}
}

// NewPredictiveScheduler returns the Section 3.3 extension: the composite
// cost discounted by each disk's decayed access frequency. gamma in [0,1)
// scales the discount; halfLife controls how fast history fades.
func NewPredictiveScheduler(loc Locator, cost CostConfig, gamma float64, halfLife time.Duration) (OnlineScheduler, error) {
	return sched.NewPredictive(loc, cost, gamma, halfLife)
}

// Offline scheduling (Section 3.1).
type (
	// OfflineStats summarizes a schedule under the offline analytic model.
	OfflineStats = offline.Stats
	// OfflineOptions bounds MWIS graph construction on large traces.
	OfflineOptions = offline.BuildOptions
)

// SolveOffline runs the MWIS offline pipeline with the GWMIN greedy and
// local-search refinement, returning the schedule and its analytic stats.
func SolveOffline(reqs []Request, loc Locator, cfg PowerConfig, opts OfflineOptions) (Schedule, OfflineStats, error) {
	return offline.SolveRefined(reqs, loc, cfg, opts, 8)
}

// SolveOfflineExact solves the offline problem optimally via exact MWIS
// branch and bound; exponential, for small instances only.
func SolveOfflineExact(reqs []Request, loc Locator, cfg PowerConfig) (Schedule, OfflineStats, error) {
	return offline.SolveExact(reqs, loc, cfg)
}

// EvaluateSchedule computes the analytic offline energy of any schedule.
func EvaluateSchedule(reqs []Request, s Schedule, cfg PowerConfig, loc Locator) (OfflineStats, error) {
	return offline.Evaluate(reqs, s, cfg, loc)
}

// Simulation.
type (
	// SystemConfig describes the simulated storage system.
	SystemConfig = storage.Config
	// Result aggregates one simulation run.
	Result = storage.Result
)

// DefaultSystemConfig returns the paper's 180-disk evaluation system.
func DefaultSystemConfig() SystemConfig { return storage.DefaultConfig() }

// RunOnline simulates the online scheduling model over a request stream.
// Options (e.g. WithTracer) attach observers to the run.
func RunOnline(cfg SystemConfig, loc Locator, s OnlineScheduler, reqs []Request, opts ...RunOption) (*Result, error) {
	return storage.RunOnline(cfg, loc, s, reqs, opts...)
}

// RunBatch simulates the batch scheduling model with the given interval.
func RunBatch(cfg SystemConfig, loc Locator, s BatchScheduler, reqs []Request, interval time.Duration, opts ...RunOption) (*Result, error) {
	return storage.RunBatch(cfg, loc, s, reqs, interval, opts...)
}

// RunOption configures RunOnline/RunBatch.
type RunOption = storage.RunOption

// WithStateLog streams every disk power-state transition to w as CSV
// ("seconds,disk,from,to").
func WithStateLog(w io.Writer) RunOption { return storage.WithStateLog(w) }

// Single-disk power-management analysis.

// GapPolicy is a single-disk spin-down policy over idle gaps.
type GapPolicy = dpm.GapPolicy

// FixedGapPolicy returns the fixed-threshold policy (2CPM when tau is
// OptimalGapThreshold).
func FixedGapPolicy(tau time.Duration) GapPolicy { return dpm.Fixed{Tau: tau} }

// OptimalGapThreshold returns tau* = E_up/down / (P_I - P_s), the
// 2-competitive threshold.
func OptimalGapThreshold(cfg PowerConfig) time.Duration { return dpm.OptimalThreshold(cfg) }

// CompetitiveRatio returns policy cost over oracle cost for a gap
// sequence.
func CompetitiveRatio(cfg PowerConfig, gaps []time.Duration, p GapPolicy) float64 {
	return dpm.CompetitiveRatio(cfg, gaps, p)
}
