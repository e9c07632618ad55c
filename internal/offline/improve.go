package offline

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/power"
)

// Improve refines a feasible offline schedule by local search: each pass
// visits every request and moves it to the replica location that most
// reduces total analytic energy, until a pass makes no progress or
// maxPasses is reached. Energy deltas are evaluated incrementally from the
// per-disk timelines (a move only disturbs the gaps adjacent to the moved
// request), so a pass costs O(N * replicationFactor * log N).
//
// The paper notes (Section 5.1) that "more sophisticated set cover and
// independent set algorithms" could push its greedy results further; this
// is that refinement for the MWIS pipeline, and it never worsens a
// schedule.
func Improve(reqs []core.Request, sched core.Schedule, cfg power.Config, locations func(core.BlockID) []core.DiskID, maxPasses int) (core.Schedule, int, error) {
	if len(sched) != len(reqs) {
		return nil, 0, fmt.Errorf("offline: schedule covers %d of %d requests", len(sched), len(reqs))
	}
	out := sched.Clone()
	tl := newTimelines(reqs, out, cfg)
	moves := 0
	for pass := 0; pass < maxPasses; pass++ {
		improvedThisPass := false
		for _, r := range reqs {
			cur := out[r.ID]
			locs := locations(r.Block)
			best := cur
			bestDelta := 0.0
			removal := tl.removalDelta(cur, r) // the same for every candidate
			for _, d := range locs {
				if d == cur {
					continue
				}
				delta := removal + tl.insertionDelta(d, r)
				if delta < bestDelta-1e-9 {
					best, bestDelta = d, delta
				}
			}
			if best != cur {
				tl.remove(cur, r)
				tl.insert(best, r)
				out[r.ID] = best
				moves++
				improvedThisPass = true
			}
		}
		if !improvedThisPass {
			break
		}
	}
	return out, moves, nil
}

// timelines maintains per-disk request timelines sorted by (time, id) with
// incremental energy-delta queries. Disks index a slice directly (disk IDs
// are dense), avoiding per-query map lookups on the local-search hot path.
type timelines struct {
	cfg  power.Config
	gm   gapModel
	tail float64
	byD  [][]core.Request
}

func newTimelines(reqs []core.Request, sched core.Schedule, cfg power.Config) *timelines {
	tl := &timelines{
		cfg:  cfg,
		gm:   newGapModel(cfg),
		tail: cfg.Breakeven().Seconds()*cfg.IdlePower + cfg.SpinDownEnergy,
	}
	numDisks := 0
	for _, d := range sched {
		if int(d)+1 > numDisks {
			numDisks = int(d) + 1
		}
	}
	tl.byD = make([][]core.Request, numDisks)
	counts := make([]int, numDisks)
	for _, r := range reqs {
		counts[sched[r.ID]]++
	}
	for d, c := range counts {
		if c > 0 {
			tl.byD[d] = make([]core.Request, 0, c)
		}
	}
	for _, r := range reqs {
		d := sched[r.ID]
		tl.byD[d] = append(tl.byD[d], r)
	}
	for d := range tl.byD {
		slices.SortFunc(tl.byD[d], cmpReq)
	}
	return tl
}

// disk returns disk d's timeline, growing the table when a local-search
// move targets a previously unused replica disk.
func (tl *timelines) disk(d core.DiskID) []core.Request {
	if int(d) >= len(tl.byD) {
		return nil
	}
	return tl.byD[d]
}

func lessReq(a, b core.Request) bool {
	if a.Arrival != b.Arrival {
		return a.Arrival < b.Arrival
	}
	return a.ID < b.ID
}

func cmpReq(a, b core.Request) int {
	if a.Arrival != b.Arrival {
		if a.Arrival < b.Arrival {
			return -1
		}
		return 1
	}
	return int(a.ID) - int(b.ID)
}

// pos locates r in disk d's timeline.
func (tl *timelines) pos(d core.DiskID, r core.Request) int {
	rs := tl.disk(d)
	i := sort.Search(len(rs), func(k int) bool { return !lessReq(rs[k], r) })
	if i >= len(rs) || rs[i].ID != r.ID {
		panic(fmt.Sprintf("offline: request %d not on disk %d", r.ID, d))
	}
	return i
}

func (tl *timelines) gap(a, b time.Duration) float64 { return tl.gm.cost(b - a) }

// removalDelta returns the energy change from removing r from disk d.
func (tl *timelines) removalDelta(d core.DiskID, r core.Request) float64 {
	rs := tl.disk(d)
	i := tl.pos(d, r)
	switch {
	case len(rs) == 1:
		return -(tl.cfg.SpinUpEnergy + tl.tail)
	case i == 0:
		return -tl.gap(rs[0].Arrival, rs[1].Arrival)
	case i == len(rs)-1:
		return -tl.gap(rs[i-1].Arrival, rs[i].Arrival)
	default:
		return tl.gap(rs[i-1].Arrival, rs[i+1].Arrival) -
			tl.gap(rs[i-1].Arrival, rs[i].Arrival) -
			tl.gap(rs[i].Arrival, rs[i+1].Arrival)
	}
}

// insertionDelta returns the energy change from adding r to disk d.
func (tl *timelines) insertionDelta(d core.DiskID, r core.Request) float64 {
	rs := tl.disk(d)
	if len(rs) == 0 {
		return tl.cfg.SpinUpEnergy + tl.tail
	}
	i := sort.Search(len(rs), func(k int) bool { return !lessReq(rs[k], r) })
	switch {
	case i == 0:
		return tl.gap(r.Arrival, rs[0].Arrival)
	case i == len(rs):
		return tl.gap(rs[i-1].Arrival, r.Arrival)
	default:
		return tl.gap(rs[i-1].Arrival, r.Arrival) +
			tl.gap(r.Arrival, rs[i].Arrival) -
			tl.gap(rs[i-1].Arrival, rs[i].Arrival)
	}
}

func (tl *timelines) remove(d core.DiskID, r core.Request) {
	rs := tl.byD[d]
	i := tl.pos(d, r)
	tl.byD[d] = append(rs[:i], rs[i+1:]...)
}

func (tl *timelines) insert(d core.DiskID, r core.Request) {
	for int(d) >= len(tl.byD) {
		tl.byD = append(tl.byD, nil)
	}
	rs := tl.byD[d]
	i := sort.Search(len(rs), func(k int) bool { return !lessReq(rs[k], r) })
	rs = append(rs, core.Request{})
	copy(rs[i+1:], rs[i:])
	rs[i] = r
	tl.byD[d] = rs
}

// SolveRefined runs the greedy MWIS pipeline followed by local-search
// refinement, the configuration used for the full-trace MWIS experiments.
func SolveRefined(reqs []core.Request, locations func(core.BlockID) []core.DiskID, cfg power.Config, opts BuildOptions, passes int) (core.Schedule, Stats, error) {
	sched, _, err := Solve(reqs, locations, cfg, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	sched, _, err = Improve(reqs, sched, cfg, locations, passes)
	if err != nil {
		return nil, Stats{}, err
	}
	st, err := Evaluate(reqs, sched, cfg, locations)
	return sched, st, err
}
