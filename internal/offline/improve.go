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
// visits the requests in order and moves each to the replica location that
// most reduces total analytic energy, until a pass makes no progress or
// maxPasses is reached. Energy deltas are evaluated incrementally from the
// per-disk timelines (a move only disturbs the gaps adjacent to the moved
// request), so one evaluation costs O(replicationFactor * log N).
//
// The first pass evaluates every request. A request's evaluation reads
// only its neighbours on its own disk's timeline and its insertion
// neighbours on each replica disk, so a later pass evaluates only the
// requests whose inputs a move changed since their last evaluation (the
// dirty ones); the rest would make no move again. A pass costs
// O(dirty * replicationFactor * log N), and the moves, their count and the
// pass the search stops at equal those of a search that evaluates every
// request in every pass.
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
	hs := newHolders(reqs, out, locations)
	dirty := make([]bool, len(reqs))
	for k := range dirty {
		dirty[k] = true
	}
	moves := 0
	for pass := 0; pass < maxPasses; pass++ {
		improvedThisPass := false
		for k, r := range reqs {
			if !dirty[k] {
				continue
			}
			dirty[k] = false
			cur := out[r.ID]
			best := cur
			bestDelta := 0.0
			removal := tl.removalDelta(cur, r) // the same for every candidate
			for _, d := range locations(r.Block) {
				if d == cur {
					continue
				}
				delta := removal + tl.insertionDelta(d, r)
				if delta < bestDelta-1e-9 {
					best, bestDelta = d, delta
				}
			}
			if best != cur {
				// The mover's old neighbours on cur now sit at i-1 and i,
				// its new ones on best at j-1 and j+1.
				i := tl.remove(cur, r)
				hs.markBetween(reqs, cur, tl.disk(cur), i-1, i, dirty)
				j := tl.insert(best, r)
				hs.markBetween(reqs, best, tl.disk(best), j-1, j+1, dirty)
				dirty[k] = true
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

// holders lists, per disk, the indices into reqs of the requests that can
// sit on that disk (a replica disk or the request's starting disk), in
// timeline (time, id) order, as one flat array sliced by disk.
type holders struct {
	start []int32 // disk d's requests are idx[start[d]:start[d+1]]
	idx   []int32
}

func newHolders(reqs []core.Request, sched core.Schedule, locations func(core.BlockID) []core.DiskID) holders {
	order := make([]int32, len(reqs))
	for k := range order {
		order[k] = int32(k)
	}
	if !slices.IsSortedFunc(reqs, cmpReq) {
		slices.SortFunc(order, func(a, b int32) int { return cmpReq(reqs[a], reqs[b]) })
	}
	// Each request's disks: its replica disks, then its starting disk when
	// that is not one of them.
	each := func(r core.Request, visit func(core.DiskID)) {
		locs := locations(r.Block)
		for _, d := range locs {
			visit(d)
		}
		if d := sched[r.ID]; !slices.Contains(locs, d) {
			visit(d)
		}
	}
	var counts []int32
	for _, r := range reqs {
		each(r, func(d core.DiskID) {
			for int(d) >= len(counts) {
				counts = append(counts, 0)
			}
			counts[d]++
		})
	}
	hs := holders{start: make([]int32, len(counts)+1)}
	for d, c := range counts {
		hs.start[d+1] = hs.start[d] + c
	}
	hs.idx = make([]int32, hs.start[len(counts)])
	next := slices.Clone(hs.start[:len(counts)])
	for _, k := range order {
		each(reqs[k], func(d core.DiskID) {
			hs.idx[next[d]] = k
			next[d]++
		})
	}
	return hs
}

// markBetween marks dirty every request that can sit on disk d and lies
// between rs[lo] and rs[hi] in timeline order, both ends included, where
// rs is d's timeline; lo < 0 or hi >= len(rs) leaves that end open. After a
// request leaves d from between rs[lo] and rs[hi], or joins it there,
// these are exactly the requests whose neighbours on d (their own, or
// their insertion neighbours) changed.
func (hs holders) markBetween(reqs []core.Request, d core.DiskID, rs []core.Request, lo, hi int, dirty []bool) {
	list := hs.idx[hs.start[d]:hs.start[d+1]]
	from, to := 0, len(list)
	if lo >= 0 {
		from = sort.Search(len(list), func(p int) bool { return !lessReq(reqs[list[p]], rs[lo]) })
	}
	if hi < len(rs) {
		to = sort.Search(len(list), func(p int) bool { return lessReq(rs[hi], reqs[list[p]]) })
	}
	for _, k := range list[from:to] {
		dirty[k] = true
	}
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

// disk returns disk d's timeline, nil for a disk past the table (one no
// request has been on yet). Only insert grows the table.
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

// remove takes r off disk d's timeline and returns the index it held.
func (tl *timelines) remove(d core.DiskID, r core.Request) int {
	rs := tl.byD[d]
	i := tl.pos(d, r)
	tl.byD[d] = append(rs[:i], rs[i+1:]...)
	return i
}

// insert puts r on disk d's timeline and returns its index there.
func (tl *timelines) insert(d core.DiskID, r core.Request) int {
	for int(d) >= len(tl.byD) {
		tl.byD = append(tl.byD, nil)
	}
	rs := tl.byD[d]
	i := sort.Search(len(rs), func(k int) bool { return !lessReq(rs[k], r) })
	rs = append(rs, core.Request{})
	copy(rs[i+1:], rs[i:])
	rs[i] = r
	tl.byD[d] = rs
	return i
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
