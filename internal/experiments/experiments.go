// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5 and Appendix A). Each FigureN function returns a
// typed result that renders as an aligned text table; cmd/figures drives
// them all, and the root bench harness wraps them as benchmarks.
package experiments

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/diskmodel"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/monitor"
	"repro/internal/offline"
	"repro/internal/placement"
	"repro/internal/sched"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Scale sizes an experiment. FullScale matches the paper's setup
// (Section 4: 180 disks, 70,000 requests, 30,000 blocks); SmallScale keeps
// unit tests and benchmarks fast while preserving every qualitative trend.
type Scale struct {
	NumDisks    int
	NumRequests int
	NumBlocks   int
	Seed        int64
	// BatchInterval is the WSC scheduling interval (paper: 0.1 s).
	BatchInterval time.Duration
	// MWIS graph construction bounds and refinement passes.
	MWISSuccessors int
	MWISMaxNodes   int
	MWISPasses     int
	// ZipfSteps are the data-locality exponents swept in Figure 10
	// (paper: 0 to 1 every 0.1).
	ZipfSteps []float64
	// Alphas and Betas are the cost-function sweep of Figure 11.
	Alphas []float64
	Betas  []float64
	// Parallelism bounds concurrent simulation cells (0 = just over half
	// the CPUs; see runParallel).
	Parallelism int
	// Workers bounds the goroutines that build the MWIS reduction (its
	// per-disk successor scans), split across concurrently running cells
	// by SolverWorkers. 0 or 1 means serial; results are bit-identical for
	// every value.
	Workers int
	// Shards is ignored: every simulated cell runs on the serial kernel.
	// It is excluded from the sweep-cache key.
	//
	// Deprecated: kept only so existing callers compile; it has no effect.
	Shards int
	// Doctor attaches a runtime-verification suite (internal/obs/monitor)
	// to every simulated cell: power-machine legality, energy and request
	// conservation, replica validity, threshold compliance and latency
	// sanity are checked live, and any violation fails the cell. The
	// offline MWIS cells are analytic (no event stream) and are not
	// doctored. Verification never influences results.
	Doctor bool
	// FlightDir, with Doctor set, arms an always-on flight recorder on
	// every monitored cell: each cell rides its own recorder (its ring is
	// owned by the cell's goroutine) recording into a distinct cell-NNN
	// subdirectory, and a doctor violation freezes the cell's recent event
	// window into a replayable dump there (inspect with `tracelens last`).
	// Without Doctor no trigger can fire, so the field is ignored. Like
	// Doctor, it never influences results and is excluded from the
	// sweep-cache key.
	FlightDir string
}

// FullScale reproduces the paper's experimental scale.
func FullScale() Scale {
	return Scale{
		NumDisks:       180,
		NumRequests:    70000,
		NumBlocks:      30000,
		Seed:           1,
		BatchInterval:  100 * time.Millisecond,
		MWISSuccessors: 4,
		MWISMaxNodes:   5_000_000,
		MWISPasses:     8,
		ZipfSteps:      []float64{0, 0.25, 0.5, 0.75, 1},
		Alphas:         []float64{0, 0.2, 0.4, 0.6, 0.8, 1},
		Betas:          []float64{1, 10, 100, 500, 1000},
		Workers:        runtime.GOMAXPROCS(0),
	}
}

// SmallScale is a fast configuration for tests and benchmarks.
func SmallScale() Scale {
	return Scale{
		NumDisks:       24,
		NumRequests:    6000,
		NumBlocks:      2500,
		Seed:           1,
		BatchInterval:  100 * time.Millisecond,
		MWISSuccessors: 4,
		MWISMaxNodes:   2_000_000,
		MWISPasses:     4,
		ZipfSteps:      []float64{0, 0.5, 1},
		Alphas:         []float64{0, 0.2, 0.6, 1},
		Betas:          []float64{1, 10, 100},
		Workers:        runtime.GOMAXPROCS(0),
	}
}

// Validate checks the scale parameters.
func (s Scale) Validate() error {
	switch {
	case s.NumDisks <= 0 || s.NumRequests < 0 || s.NumBlocks <= 0:
		return fmt.Errorf("experiments: invalid sizes in %+v", s)
	case s.BatchInterval <= 0:
		return fmt.Errorf("experiments: batch interval %s", s.BatchInterval)
	case s.MWISPasses < 0:
		return fmt.Errorf("experiments: MWIS passes %d", s.MWISPasses)
	}
	return nil
}

// SolverWorkers returns the worker bound each MWIS cell passes to the
// offline pipeline: the Workers budget split across the cells that may run
// concurrently (Parallelism), at least 1. The pipeline's results are
// worker-count independent, so the split only affects speed and memory.
func (s Scale) SolverWorkers() int {
	if s.Workers <= 0 {
		return 1
	}
	cells := s.Parallelism
	if cells <= 0 {
		cells = runtime.GOMAXPROCS(0)/2 + 1
	}
	if w := s.Workers / cells; w > 1 {
		return w
	}
	return 1
}

// Trace selects the evaluation workload.
type Trace int

// The two workloads of Section 4.1.
const (
	Cello     Trace = iota + 1 // bursty timesharing trace (HP Cello)
	Financial                  // smoother OLTP trace (UMass Financial1)
)

// String implements fmt.Stringer.
func (t Trace) String() string {
	switch t {
	case Cello:
		return "cello"
	case Financial:
		return "financial1"
	default:
		return fmt.Sprintf("Trace(%d)", int(t))
	}
}

// Requests generates the trace's synthetic request stream at this scale.
func (t Trace) Requests(s Scale) []core.Request {
	switch t {
	case Cello:
		return workload.CelloLike(s.NumRequests, s.NumBlocks, s.Seed)
	case Financial:
		return workload.FinancialLike(s.NumRequests, s.NumBlocks, s.Seed)
	default:
		panic(fmt.Sprintf("experiments: invalid trace %d", int(t)))
	}
}

// Algorithm names, in the paper's presentation order.
const (
	AlgoRandom    = "random"
	AlgoStatic    = "static"
	AlgoHeuristic = "energy-aware heuristic"
	AlgoWSC       = "energy-aware WSC"
	AlgoMWIS      = "energy-aware MWIS"
)

// Algorithms lists the five schedulers compared throughout Section 5.
func Algorithms() []string {
	return []string{AlgoRandom, AlgoStatic, AlgoHeuristic, AlgoWSC, AlgoMWIS}
}

// Run is one (trace, replication, locality, algorithm) measurement cell.
type Run struct {
	Algo string
	// NormEnergy is energy normalized to the always-on configuration.
	NormEnergy float64
	SpinUps    int
	SpinDowns  int
	// Mean and P90 response times; zero for the offline MWIS model, which
	// by assumption has no spin-up delay (Section 2.2) and is therefore
	// omitted from the paper's response-time plots. Only replication-sweep
	// cells carry P90: Figure 13 reads it, Figures 10 and 11 do not.
	Mean time.Duration
	P90  time.Duration
	// Response holds the full sample set for CCDF plots (nil for MWIS).
	Response *metrics.ResponseTimes
	// PerDisk has one entry per disk for the Figure 9/17 breakdowns.
	PerDisk []diskmodel.Stats
}

// cell runs one algorithm against one placement and trace.
func cell(s Scale, reqs []core.Request, plc *placement.Placement, algo string, cost sched.CostConfig) (Run, error) {
	simulatedCells.Add(1)
	cfg := storage.DefaultConfig()
	cfg.NumDisks = s.NumDisks

	if algo == AlgoMWIS {
		schedule, _, err := offline.SolveRefined(reqs, plc.Locations, cfg.Power, offline.BuildOptions{
			MaxSuccessors: s.MWISSuccessors,
			MaxNodes:      s.MWISMaxNodes,
			Workers:       s.SolverWorkers(),
		}, s.MWISPasses)
		if err != nil {
			return Run{}, fmt.Errorf("experiments: MWIS pipeline: %w", err)
		}
		horizon := offline.Horizon(reqs, cfg.Power)
		perDisk, err := offline.Breakdown(reqs, schedule, cfg.Power, s.NumDisks, horizon)
		if err != nil {
			return Run{}, err
		}
		spinUps, spinDowns := 0, 0
		for _, st := range perDisk {
			spinUps += st.SpinUps
			spinDowns += st.SpinDowns
		}
		return Run{
			Algo:       algo,
			NormEnergy: offline.BreakdownEnergy(perDisk) / offline.AlwaysOnEnergy(cfg.Power, s.NumDisks, horizon),
			SpinUps:    spinUps,
			SpinDowns:  spinDowns,
			PerDisk:    perDisk,
		}, nil
	}

	var suite *monitor.Suite
	var tr *obs.Tracer
	var rec *flight.Recorder
	var recDir string
	var opts []storage.RunOption
	if s.Doctor {
		suite = monitor.NewSuite(monitor.Config{
			Power: cfg.Power, Mech: cfg.Mech, Policy: cfg.Policy, Locations: plc.Locations,
		})
		// A one-slot tracer feeds the live tee; traced schedulers below share
		// it so decisions are replica-checked too.
		tr = obs.NewTracer(1)
		opts = append(opts, storage.WithTracer(tr), storage.WithMonitor(suite))
		if s.FlightDir != "" {
			// One recorder per cell: the ring is written from the cell's own
			// goroutine, and the sequence number keeps parallel cells' dump
			// directories distinct. Nothing touches the filesystem unless a
			// violation actually triggers a dump.
			recDir = filepath.Join(s.FlightDir, fmt.Sprintf("cell-%03d", flightCells.Add(1)))
			rec = flight.New(flight.Config{Dir: recDir, Pprof: true})
			opts = append(opts, storage.WithFlight(rec))
		}
	}

	var res *storage.Result
	var err error
	switch algo {
	case AlgoRandom:
		res, err = storage.RunOnline(cfg, plc.Locations, sched.NewRandom(plc.Locations, s.Seed+1), reqs, opts...)
	case AlgoStatic:
		res, err = storage.RunOnline(cfg, plc.Locations, sched.Static{Locations: plc.Locations}, reqs, opts...)
	case AlgoHeuristic:
		res, err = storage.RunOnline(cfg, plc.Locations,
			sched.Heuristic{Locations: plc.Locations, Cost: cost, Tracer: tr}, reqs, opts...)
	case AlgoWSC:
		res, err = storage.RunBatch(cfg, plc.Locations,
			sched.WSC{Locations: plc.Locations, Cost: cost, Scratch: &sched.CoverScratch{}, Tracer: tr},
			reqs, s.BatchInterval, opts...)
	default:
		return Run{}, fmt.Errorf("experiments: unknown algorithm %q", algo)
	}
	if err != nil {
		return Run{}, err
	}
	if suite != nil && !suite.Passed() {
		var sb strings.Builder
		suite.WriteReport(&sb)
		if rec != nil && rec.Dumps() > 0 {
			fmt.Fprintf(&sb, "flight dump: %s (tracelens last %s)\n", recDir, recDir)
		}
		return Run{}, fmt.Errorf("experiments: doctor: %s violated %d invariants:\n%s",
			algo, suite.Total(), sb.String())
	}
	if rec != nil {
		if ferr := rec.Err(); ferr != nil {
			return Run{}, fmt.Errorf("experiments: flight recorder: %w", ferr)
		}
	}
	return Run{
		Algo:       algo,
		NormEnergy: res.NormalizedEnergy(),
		SpinUps:    res.SpinUps,
		SpinDowns:  res.SpinDowns,
		Mean:       res.Response.Mean(),
		Response:   &res.Response,
		PerDisk:    res.PerDisk,
	}, nil
}

// placementBuilds counts placement.Generate calls, so tests can verify the
// sharing discipline: one build per (rf, zipf) cell group, zero on a sweep
// cache hit.
var placementBuilds atomic.Int64

// simulatedCells counts cell calls, so tests can verify that the sweep
// cache simulates each sweep cell once.
var simulatedCells atomic.Int64

// flightCells numbers flight-armed cells process-wide so parallel cells
// never share a dump directory. The numbering order is scheduling-dependent
// and deliberately carries no meaning beyond uniqueness.
var flightCells atomic.Int64

// makePlacement builds the Section 4.2 layout for a replication factor and
// locality exponent.
func makePlacement(s Scale, rf int, z float64) (*placement.Placement, error) {
	placementBuilds.Add(1)
	return placement.Generate(placement.GenerateConfig{
		NumDisks:          s.NumDisks,
		NumBlocks:         s.NumBlocks,
		ReplicationFactor: rf,
		ZipfExponent:      z,
		Seed:              s.Seed + 7,
	})
}

// ReplicationFactors is the sweep range of Figures 6-8 and 13-16.
func ReplicationFactors() []int { return []int{1, 2, 3, 4, 5} }

// ReplicationSweep holds the shared measurements behind Figures 6, 7, 8 and
// 13 (Cello) or 14, 15, 16 (Financial1): every algorithm at every
// replication factor with Zipf(1) data locality.
type ReplicationSweep struct {
	Trace Trace
	Scale Scale
	RFs   []int
	// Runs[rf] holds one Run per algorithm, in Algorithms() order.
	Runs map[int][]Run
}

// SweepReplication returns the shared replication-factor sweep, consulting
// the process-wide SweepCache: each cell is simulated by the first call
// that needs it (this one, or a Figure9 or Figure12 call on the same
// scale) and later calls reuse the stored, field-identical runs. Doctored
// scales always simulate fresh (see SweepCache).
func SweepReplication(s Scale, tr Trace) (*ReplicationSweep, error) {
	return DefaultSweepCache().Sweep(s, tr)
}

// Get returns the run for an algorithm at a replication factor.
func (sw *ReplicationSweep) Get(rf int, algo string) (Run, bool) {
	for _, r := range sw.Runs[rf] {
		if r.Algo == algo {
			return r, true
		}
	}
	return Run{}, false
}
