// Package sched implements the paper's five scheduling algorithms
// (Section 4.3): the energy-oblivious Random and Static baselines, the
// cost-function online Heuristic (Section 3.3), the weighted-set-cover
// batch scheduler (Section 3.2), and the precomputed offline MWIS schedule
// (Section 3.1, built by internal/offline).
package sched

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/power"
)

// Locator resolves a block to its replica locations (original first).
type Locator func(core.BlockID) []core.DiskID

// View is the scheduler's read-only window onto the running system.
type View interface {
	// Now returns the current virtual time.
	Now() time.Duration
	// DiskState returns the disk's power state.
	DiskState(core.DiskID) core.DiskState
	// Load returns the number of requests queued or in service (Eq. 7).
	Load(core.DiskID) int
	// LastRequestTime returns T_last; ok is false before the first request.
	LastRequestTime(core.DiskID) (time.Duration, bool)
}

// Online schedules each request the moment it arrives.
type Online interface {
	Name() string
	// Schedule returns the disk to serve the request; it must be one of
	// the block's replica locations.
	Schedule(req core.Request, v View) core.DiskID
}

// Batch schedules a queued batch of requests at each scheduling interval.
type Batch interface {
	Name() string
	// ScheduleBatch returns one disk per request, parallel to reqs.
	ScheduleBatch(reqs []core.Request, v View) []core.DiskID
}

// CostConfig parameterizes the composite cost function of Eq. 6:
// C(d) = E(d)*Alpha/Beta + P(d)*(1-Alpha), with E(d) from Eq. 5.
type CostConfig struct {
	Alpha float64 // energy/performance mix: 1 = energy only, 0 = load only
	Beta  float64 // unit scale between joules and queued requests
	Power power.Config
}

// DefaultCost returns the configuration used throughout the evaluation:
// the paper's alpha=0.2 (Appendix A.2) with beta=10. Beta only fixes the
// unit scale between E(d) and P(d); the paper's beta=100 assumed its own
// energy unit, and with E(d) in joules under our power model the same
// energy/response balance point (Figure 11's knee) sits at beta=10 — see
// EXPERIMENTS.md for the sweep.
func DefaultCost(p power.Config) CostConfig {
	return CostConfig{Alpha: 0.2, Beta: 10, Power: p}
}

// Validate checks the cost parameters.
func (c CostConfig) Validate() error {
	if c.Alpha < 0 || c.Alpha > 1 || math.IsNaN(c.Alpha) {
		return fmt.Errorf("sched: alpha %v outside [0,1]", c.Alpha)
	}
	if c.Beta <= 0 || math.IsNaN(c.Beta) {
		return fmt.Errorf("sched: beta %v must be positive", c.Beta)
	}
	return c.Power.Validate()
}

// EnergyCost computes E(d_k) of Eq. 5: the additional energy incurred by
// routing a request to the disk given its current state.
func (c CostConfig) EnergyCost(v View, d core.DiskID) float64 {
	switch s := v.DiskState(d); s {
	case core.StateActive, core.StateSpinUp:
		return 0
	case core.StateStandby, core.StateSpinDown:
		return c.Power.UpDownEnergy() + c.Power.Breakeven().Seconds()*c.Power.IdlePower
	case core.StateIdle:
		last, ok := v.LastRequestTime(d)
		if !ok {
			last = 0
		}
		return (v.Now() - last).Seconds() * c.Power.IdlePower
	default:
		panic(fmt.Sprintf("sched: invalid disk state %v", s))
	}
}

// CostOf computes the composite C(d_k) of Eq. 6 from an already-evaluated
// E(d_k) and queue depth, so a caller that reports both the energy term
// and the composite (the serving engine's per-decision payload) prices
// the disk with a single energy evaluation.
func (c CostConfig) CostOf(energy float64, load int) float64 {
	return energy*c.Alpha/c.Beta + float64(load)*(1-c.Alpha)
}

// Cost computes the composite C(d_k) of Eq. 6.
func (c CostConfig) Cost(v View, d core.DiskID) float64 {
	return c.CostOf(c.EnergyCost(v, d), v.Load(d))
}

// Random is the energy-oblivious baseline that sends each request to a
// uniformly random replica.
type Random struct {
	Locations Locator
	rng       *rand.Rand
}

// NewRandom returns a seeded Random scheduler.
func NewRandom(loc Locator, seed int64) *Random {
	return &Random{Locations: loc, rng: rand.New(rand.NewSource(seed))}
}

// Name implements Online.
func (*Random) Name() string { return "random" }

// Schedule implements Online.
func (r *Random) Schedule(req core.Request, _ View) core.DiskID {
	locs := r.Locations(req.Block)
	if len(locs) == 0 {
		return core.InvalidDisk
	}
	return locs[r.rng.Intn(len(locs))]
}

// Static is the energy-oblivious baseline that always uses the original
// data location.
type Static struct {
	Locations Locator
}

// Name implements Online.
func (Static) Name() string { return "static" }

// Schedule implements Online.
func (s Static) Schedule(req core.Request, _ View) core.DiskID {
	locs := s.Locations(req.Block)
	if len(locs) == 0 {
		return core.InvalidDisk
	}
	return locs[0]
}

// Heuristic is the online energy-aware scheduler of Section 3.3: each
// request goes to the replica location minimizing the composite cost C(d).
type Heuristic struct {
	Locations Locator
	Cost      CostConfig
	// Tracer, when non-nil and enabled, receives a decision event per
	// scheduled request carrying the winning composite cost C(d), its energy
	// term E(d) and the chosen disk's load P(d). Pass the same tracer to
	// storage.WithTracer so decisions interleave with the request lifecycle.
	Tracer *obs.Tracer
}

// Name implements Online.
func (Heuristic) Name() string { return "energy-aware heuristic" }

// Schedule implements Online. Ties break toward the lower disk ID so runs
// are reproducible.
func (h Heuristic) Schedule(req core.Request, v View) core.DiskID {
	locs := h.Locations(req.Block)
	if len(locs) == 0 {
		return core.InvalidDisk
	}
	best := locs[0]
	bestCost := h.Cost.Cost(v, best)
	for _, d := range locs[1:] {
		c := h.Cost.Cost(v, d)
		if c < bestCost || (c == bestCost && d < best) {
			best, bestCost = d, c
		}
	}
	if h.Tracer.Enabled() {
		h.Tracer.Decision(v.Now(), req.ID, req.Block, best, bestCost,
			h.Cost.EnergyCost(v, best), v.Load(best))
	}
	return best
}

// WSC is the weighted-set-cover batch scheduler of Section 3.2: the
// universe is the queued batch, each disk is a set containing the requests
// it can serve, weighted by the composite cost function, and the greedy
// cover picks the serving disks.
type WSC struct {
	Locations Locator
	Cost      CostConfig
	// Scratch, when set, is reused across batch ticks so steady-state
	// scheduling does not allocate per batch. A pointer so it survives the
	// value-receiver copies Batch implementations make.
	Scratch *CoverScratch
	// Tracer, when non-nil and enabled, receives a decision event per placed
	// request (see Heuristic.Tracer).
	Tracer *obs.Tracer
}

// Name implements Batch.
func (WSC) Name() string { return "energy-aware WSC" }

// CoverScratch holds the reusable buffers of the per-tick cover
// construction: disk-indexed element lists, the first-seen disk order, the
// universe index and the set list. A batch scheduler carrying one (see
// WSC.Scratch) builds every tick's Theorem 2 instance with zero steady-state
// allocations instead of a fresh map of slices per batch. The zero value is
// ready to use; a CoverScratch must not be shared by concurrent runs.
type CoverScratch struct {
	perDisk  [][]int // element lists indexed by disk, truncated between ticks
	disks    []core.DiskID
	covIdx   []int
	sets     []graph.Set
	out      []core.DiskID // assignment buffer returned by ScheduleBatch
	assigned []bool
	greedy   graph.GreedyScratch
}

func (s *CoverScratch) reset() {
	for _, d := range s.disks {
		s.perDisk[d] = s.perDisk[d][:0]
	}
	s.disks = s.disks[:0]
	s.covIdx = s.covIdx[:0]
	s.sets = s.sets[:0]
}

// outFor returns the assignment buffer sized and zeroed for n requests.
// buildCover overwrites every entry (InvalidDisk for unplaceable requests,
// the covering disk otherwise), so the clear only guards against a stale
// read if that invariant ever broke.
func (s *CoverScratch) outFor(n int) []core.DiskID {
	if cap(s.out) < n {
		s.out = make([]core.DiskID, n)
	} else {
		s.out = s.out[:n]
		clear(s.out)
	}
	return s.out
}

// assignedFor returns the per-element assignment mask sized and zeroed for
// n universe elements.
func (s *CoverScratch) assignedFor(n int) []bool {
	if cap(s.assigned) < n {
		s.assigned = make([]bool, n)
	} else {
		s.assigned = s.assigned[:n]
		clear(s.assigned)
	}
	return s.assigned
}

// buildCover constructs the Theorem 2 reduction for a batch: the universe
// is the subset of requests that have (non-negative) locations at all
// (covIdx maps universe elements back to batch positions), each candidate
// disk is a set weighted by the composite cost, and out is pre-marked with
// InvalidDisk for unplaced requests. scratch may be nil (per-call buffers);
// the returned slices alias it and are valid until its next use.
func buildCover(loc Locator, cost CostConfig, reqs []core.Request, v View, scratch *CoverScratch) (in graph.CoverInstance, disks []core.DiskID, covIdx []int, out []core.DiskID) {
	if scratch == nil {
		scratch = &CoverScratch{}
	}
	scratch.reset()
	out = scratch.outFor(len(reqs))
	for i, r := range reqs {
		e := -1
		for _, d := range loc(r.Block) {
			if d < 0 {
				continue
			}
			if e < 0 {
				e = len(scratch.covIdx)
				scratch.covIdx = append(scratch.covIdx, i)
			}
			for int(d) >= len(scratch.perDisk) {
				scratch.perDisk = append(scratch.perDisk, nil)
			}
			if len(scratch.perDisk[d]) == 0 {
				scratch.disks = append(scratch.disks, d)
			}
			scratch.perDisk[d] = append(scratch.perDisk[d], e)
		}
		if e < 0 {
			out[i] = core.InvalidDisk
		}
	}
	in = graph.CoverInstance{NumElements: len(scratch.covIdx)}
	for _, d := range scratch.disks {
		scratch.sets = append(scratch.sets, graph.Set{
			Weight:   cost.Cost(v, d),
			Elements: scratch.perDisk[d],
		})
	}
	in.Sets = scratch.sets
	return in, scratch.disks, scratch.covIdx, out
}

// applyCover assigns each covered request to its covering disk. scratch may
// be nil (per-call mask).
func applyCover(in graph.CoverInstance, chosen []int, disks []core.DiskID, covIdx []int, out []core.DiskID, scratch *CoverScratch) {
	if scratch == nil {
		scratch = &CoverScratch{}
	}
	assigned := scratch.assignedFor(len(covIdx))
	for _, si := range chosen {
		d := disks[si]
		for _, e := range in.Sets[si].Elements {
			if !assigned[e] {
				assigned[e] = true
				out[covIdx[e]] = d
			}
		}
	}
}

// ScheduleBatch implements Batch.
func (w WSC) ScheduleBatch(reqs []core.Request, v View) []core.DiskID {
	if len(reqs) == 0 {
		return nil
	}
	scratch := w.Scratch
	if scratch == nil {
		scratch = &CoverScratch{}
	}
	in, disks, covIdx, out := buildCover(w.Locations, w.Cost, reqs, v, scratch)
	// Every universe element appears in at least one set by construction,
	// so the greedy cover cannot fail.
	chosen, _, err := graph.GreedyCoverWith(in, &scratch.greedy)
	if err != nil {
		panic(fmt.Sprintf("sched: greedy cover on coverable instance failed: %v", err))
	}
	applyCover(in, chosen, disks, covIdx, out, scratch)
	// One decision event per placed request; a nil or disabled tracer
	// costs one branch per tick.
	if w.Tracer.Enabled() {
		for i, r := range reqs {
			if d := out[i]; d != core.InvalidDisk {
				w.Tracer.Decision(v.Now(), r.ID, r.Block, d, w.Cost.Cost(v, d), w.Cost.EnergyCost(v, d), v.Load(d))
			}
		}
	}
	return out
}

// WSCExact is the batch scheduler with an optimal set-cover solver: each
// batch's Theorem 2 instance is solved by branch and bound, falling back
// to the greedy cover when the search exceeds MaxExpansions. Useful for
// measuring the greedy's optimality gap on real batches
// (BenchmarkAblationCoverSolver); exponential worst case.
type WSCExact struct {
	Locations Locator
	Cost      CostConfig
	// MaxExpansions caps the branch-and-bound search per batch
	// (0 = a conservative default).
	MaxExpansions int
}

// Name implements Batch.
func (WSCExact) Name() string { return "energy-aware WSC (exact)" }

// ScheduleBatch implements Batch.
func (w WSCExact) ScheduleBatch(reqs []core.Request, v View) []core.DiskID {
	if len(reqs) == 0 {
		return nil
	}
	scratch := &CoverScratch{}
	in, disks, covIdx, out := buildCover(w.Locations, w.Cost, reqs, v, scratch)
	limit := w.MaxExpansions
	if limit == 0 {
		limit = 200000
	}
	chosen, _, err := graph.ExactCover(in, limit)
	if err != nil {
		// Search too large (or uncoverable, which cannot happen by
		// construction): fall back to the greedy cover.
		chosen, _, err = graph.GreedyCoverWith(in, &scratch.greedy)
		if err != nil {
			panic(fmt.Sprintf("sched: greedy cover on coverable instance failed: %v", err))
		}
	}
	applyCover(in, chosen, disks, covIdx, out, scratch)
	return out
}

// Precomputed wraps a full offline schedule (e.g. from internal/offline's
// MWIS pipeline) as an Online scheduler: each arriving request is sent to
// its precomputed disk.
type Precomputed struct {
	Label       string
	Assignments core.Schedule
}

// Name implements Online.
func (p Precomputed) Name() string {
	if p.Label != "" {
		return p.Label
	}
	return "precomputed"
}

// Schedule implements Online.
func (p Precomputed) Schedule(req core.Request, _ View) core.DiskID {
	if req.ID < 0 || int(req.ID) >= len(p.Assignments) {
		return core.InvalidDisk
	}
	return p.Assignments[req.ID]
}

var (
	_ Online = (*Random)(nil)
	_ Online = Static{}
	_ Online = Heuristic{}
	_ Online = Precomputed{}
	_ Batch  = WSC{}
	_ Batch  = WSCExact{}
)
