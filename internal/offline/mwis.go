package offline

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/power"
)

// Node is one X(i,j,k) vertex of the MWIS reduction: scheduling requests
// r_I and r_J consecutively on disk Disk saves Weight joules.
type Node struct {
	I, J   core.RequestID
	Disk   core.DiskID
	Weight float64
}

// Instance is a constructed MWIS problem plus the node metadata needed to
// derive a schedule from an independent set.
type Instance struct {
	Graph *graph.Graph
	Nodes []Node
}

// BuildOptions bounds graph construction on large traces.
type BuildOptions struct {
	// MaxSuccessors caps, per (request, disk), how many candidate
	// successors inside the replacement window become nodes. In any
	// schedule the realized successor is overwhelmingly one of the next
	// few same-disk requests, so small caps lose almost nothing while
	// keeping the graph near-linear in the trace length. 0 means
	// unlimited (exact reduction).
	MaxSuccessors int
	// MaxNodes aborts construction when exceeded (0 = unlimited),
	// guarding against quadratic blowup on pathological traces.
	MaxNodes int
	// HybridExactLimit, when positive, solves connected components of the
	// conflict graph with at most this many vertices exactly (branch and
	// bound) and only the larger ones greedily. Bursty traces decompose
	// into many small components, so modest limits recover most of the
	// optimum at near-greedy cost.
	HybridExactLimit int
	// Workers bounds the goroutines used for graph construction (the
	// per-disk successor scans are independent) and for the
	// component-parallel MWIS solve. 0 or 1 means serial. Results are
	// bit-identical for every worker count.
	Workers int
}

// workerCount normalizes the Workers knob.
func (o BuildOptions) workerCount() int {
	if o.Workers < 1 {
		return 1
	}
	return o.Workers
}

// Build constructs the MWIS reduction of Section 3.1.2 for a request
// stream: Step 1 adds a vertex for every non-zero X(i,j,k) (Eqs. 3-4),
// Step 2 adds an edge for every energy-constraint violation (same i) and
// schedule-constraint violation (shared request, different disk).
//
// Construction is allocation-lean and sharded: replica membership is
// gathered into one sorted (disk, request) run instead of a map of slices,
// each disk's successor scan runs independently (concurrently when
// opts.Workers > 1) into a pre-counted node slice, and the conflict-edge
// expansion walks sorted (request, vertex) index ranges rather than a
// map keyed by request. The produced instance is bit-identical to the
// serial construction for every worker count.
func Build(reqs []core.Request, locations func(core.BlockID) []core.DiskID, cfg power.Config, opts BuildOptions) (*Instance, error) {
	window := cfg.ReplacementWindow()

	// Step 0: one sorted run of (disk, request index) pairs replaces the
	// per-disk map of request copies. Packing both into a uint64 keyed by
	// disk groups the run by disk after a single sort. Capacity assumes the
	// common 3-way replication; higher factors regrow geometrically.
	pairs := make([]uint64, 0, 3*len(reqs))
	for i, r := range reqs {
		locs := locations(r.Block)
		if len(locs) == 0 {
			return nil, fmt.Errorf("offline: request %d block %d has no locations", r.ID, r.Block)
		}
		for _, d := range locs {
			if d < 0 {
				return nil, fmt.Errorf("offline: request %d block %d on negative disk %d", r.ID, r.Block, d)
			}
			pairs = append(pairs, uint64(d)<<32|uint64(uint32(i)))
		}
	}
	graph.RadixSortUint64(pairs)

	// Disk shards: contiguous ranges of the sorted run, counted first so the
	// shard slice is allocated exactly once.
	type shard struct{ lo, hi int }
	nshards := 0
	for i := range pairs {
		if i == 0 || pairs[i]>>32 != pairs[i-1]>>32 {
			nshards++
		}
	}
	shards := make([]shard, 0, nshards)
	for lo := 0; lo < len(pairs); {
		hi := lo + 1
		for hi < len(pairs) && pairs[hi]>>32 == pairs[lo]>>32 {
			hi++
		}
		shards = append(shards, shard{lo, hi})
		lo = hi
	}

	// Step 1 per disk: sort the disk's requests by (arrival, id), then scan
	// successors inside the replacement window. A cheap counting pass
	// (window arithmetic only) pre-sizes the node slice exactly once.
	nodesByShard := make([][]Node, len(shards))
	var built atomic.Int64 // nodes completed by finished shards
	var exceeded atomic.Bool
	buildShard := func(si int) {
		sh := shards[si]
		d := core.DiskID(pairs[sh.lo] >> 32)
		run := pairs[sh.lo:sh.hi]
		// Order the disk's requests by (arrival, id). The run arrives in
		// request-index order, which for arrival-sorted traces is already
		// correct, so this sort is near-free in the common case.
		slices.SortFunc(run, func(a, b uint64) int {
			ra, rb := reqs[uint32(a)], reqs[uint32(b)]
			if ra.Arrival != rb.Arrival {
				if ra.Arrival < rb.Arrival {
					return -1
				}
				return 1
			}
			switch {
			case ra.ID < rb.ID:
				return -1
			case ra.ID > rb.ID:
				return 1
			}
			return 0
		})
		// Counting pass: pairs inside the window, capped per request at
		// MaxSuccessors — an upper bound on accepted nodes.
		upper := 0
		for i := 0; i < len(run); i++ {
			ti := reqs[uint32(run[i])].Arrival
			c := 0
			for j := i + 1; j < len(run); j++ {
				if reqs[uint32(run[j])].Arrival-ti >= window {
					break
				}
				c++
				if opts.MaxSuccessors > 0 && c >= opts.MaxSuccessors {
					break
				}
			}
			upper += c
		}
		nodes := make([]Node, 0, upper)
		for i := 0; i < len(run); i++ {
			ri := reqs[uint32(run[i])]
			succ := 0
			for j := i + 1; j < len(run); j++ {
				rj := reqs[uint32(run[j])]
				if rj.Arrival-ri.Arrival >= window {
					break
				}
				w := Saving(cfg, ri.Arrival, rj.Arrival)
				if w <= 0 {
					continue
				}
				nodes = append(nodes, Node{I: ri.ID, J: rj.ID, Disk: d, Weight: w})
				if opts.MaxNodes > 0 && built.Load()+int64(len(nodes)) > int64(opts.MaxNodes) {
					exceeded.Store(true)
					return
				}
				succ++
				if opts.MaxSuccessors > 0 && succ >= opts.MaxSuccessors {
					break
				}
			}
		}
		built.Add(int64(len(nodes)))
		nodesByShard[si] = nodes
	}
	if workers := min(opts.workerCount(), len(shards)); workers <= 1 {
		for si := range shards {
			buildShard(si)
			if exceeded.Load() {
				break
			}
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !exceeded.Load() {
					si := int(next.Add(1)) - 1
					if si >= len(shards) {
						return
					}
					buildShard(si)
				}
			}()
		}
		wg.Wait()
	}
	if exceeded.Load() {
		return nil, fmt.Errorf("offline: MWIS graph exceeds %d nodes", opts.MaxNodes)
	}
	total := 0
	for _, ns := range nodesByShard {
		total += len(ns)
	}
	if opts.MaxNodes > 0 && total > opts.MaxNodes {
		return nil, fmt.Errorf("offline: MWIS graph exceeds %d nodes", opts.MaxNodes)
	}
	nodes := make([]Node, 0, total)
	for _, ns := range nodesByShard {
		nodes = append(nodes, ns...)
	}
	// Deterministic vertex order regardless of shard or worker schedule:
	// (I, J, Disk) is unique per node, so this order is total.
	slices.SortFunc(nodes, func(na, nb Node) int {
		if na.I != nb.I {
			return int(na.I) - int(nb.I)
		}
		if na.J != nb.J {
			return int(na.J) - int(nb.J)
		}
		return int(na.Disk) - int(nb.Disk)
	})

	// Step 2: conflict edges. Every vertex is indexed under both requests
	// it mentions via one sorted (request, vertex) run; vertices sharing a
	// request form a contiguous range, replacing the map of slices.
	weights := make([]float64, len(nodes))
	mentions := make([]uint64, 0, 2*len(nodes))
	disks := 0
	for v, n := range nodes {
		weights[v] = n.Weight
		disks = max(disks, int(n.Disk)+1)
		mentions = append(mentions,
			uint64(n.I)<<32|uint64(uint32(v)),
			uint64(n.J)<<32|uint64(uint32(v)))
	}
	graph.RadixSortUint64(mentions)
	// eachRange calls f with every request r and, in vertex order, the
	// vertices mentioning it, gathered with their predecessor and disk into
	// one reused slice so the loops over a range read contiguous memory.
	type mention struct {
		v    int32
		i    core.RequestID
		disk core.DiskID
	}
	var local []mention
	eachRange := func(f func(r core.RequestID, ms []mention)) {
		for lo := 0; lo < len(mentions); {
			r := core.RequestID(mentions[lo] >> 32)
			local = local[:0]
			for ; lo < len(mentions) && core.RequestID(mentions[lo]>>32) == r; lo++ {
				v := int32(uint32(mentions[lo]))
				local = append(local, mention{v, nodes[v].I, nodes[v].Disk})
			}
			f(r, local)
		}
	}
	// Within r's range a vertex either leaves r (i == r) or enters it
	// (j == r). Two vertices conflict when they share the predecessor i
	// (energy constraint) or sit on different disks (schedule constraint).
	// Two vertices entering r from the same i are the pair (i,r) on two
	// disks; they meet again in i's range and are an edge from there only,
	// so every edge is yielded once. Hence, in r's range: two leaving
	// vertices always conflict, and any other pair conflicts when the
	// predecessors and the disks both differ.
	//
	// The degrees graph.New needs come from per-range tallies rather than a
	// second walk over the pairs. Vertices sort by (i, j, disk), so within a
	// range those sharing a predecessor are contiguous.
	deg := make([]int32, len(nodes))
	leaving, entering := make([]int32, disks), make([]int32, disks) // per disk, in the current range
	eachRange(func(r core.RequestID, ms []mention) {
		var leave int32
		for _, m := range ms {
			if m.i == r {
				leave++
				leaving[m.disk]++
			} else {
				entering[m.disk]++
			}
		}
		enter := int32(len(ms)) - leave
		for a := 0; a < len(ms); {
			b := a + 1
			for b < len(ms) && ms[b].i == ms[a].i {
				b++
			}
			same := int32(b - a)
			for _, m := range ms[a:b] {
				if m.i == r {
					deg[m.v] += same - 1 + enter - entering[m.disk]
				} else {
					// m itself is both on its disk and of its i: add it back.
					deg[m.v] += leave - leaving[m.disk] + enter - entering[m.disk] - same + 1
				}
			}
			a = b
		}
		for _, m := range ms {
			leaving[m.disk], entering[m.disk] = 0, 0
		}
	})
	g := graph.New(weights, deg, func(yield func(u, v int)) {
		eachRange(func(r core.RequestID, ms []mention) {
			for a, mu := range ms {
				for _, mv := range ms[a+1:] {
					if mu.i == mv.i && mu.i == r || mu.i != mv.i && mu.disk != mv.disk {
						yield(int(mu.v), int(mv.v))
					}
				}
			}
		})
	})
	return &Instance{Graph: g, Nodes: nodes}, nil
}

// DeriveSchedule is Step 4 of the algorithm: requests appearing in selected
// nodes go to those nodes' disks; requests with no selected node cannot
// save energy anywhere and are placed on a replica already in use when
// possible, else their original location.
func (in *Instance) DeriveSchedule(reqs []core.Request, locations func(core.BlockID) []core.DiskID, selected []int) (core.Schedule, error) {
	sched := make(core.Schedule, len(reqs))
	for i := range sched {
		sched[i] = core.InvalidDisk
	}
	assign := func(r core.RequestID, d core.DiskID) error {
		if sched[r] != core.InvalidDisk && sched[r] != d {
			return fmt.Errorf("offline: request %d assigned to disks %d and %d (selection not independent)", r, sched[r], d)
		}
		sched[r] = d
		return nil
	}
	for _, v := range selected {
		if v < 0 || v >= len(in.Nodes) {
			return nil, fmt.Errorf("offline: selected vertex %d out of range", v)
		}
		n := in.Nodes[v]
		if err := assign(n.I, n.Disk); err != nil {
			return nil, err
		}
		if err := assign(n.J, n.Disk); err != nil {
			return nil, err
		}
	}
	// Flat membership set over disk IDs: one allocation instead of a map,
	// grown on the rare disk ID past the initial span.
	used := make([]bool, 256)
	mark := func(d core.DiskID) {
		if int(d) >= len(used) {
			grown := make([]bool, max(2*len(used), int(d)+1))
			copy(grown, used)
			used = grown
		}
		used[d] = true
	}
	for _, d := range sched {
		if d != core.InvalidDisk {
			mark(d)
		}
	}
	for _, r := range reqs {
		if sched[r.ID] != core.InvalidDisk {
			continue
		}
		locs := locations(r.Block)
		if len(locs) == 0 {
			return nil, fmt.Errorf("offline: request %d block %d has no locations", r.ID, r.Block)
		}
		choice := locs[0]
		for _, d := range locs {
			if int(d) < len(used) && used[d] {
				choice = d
				break
			}
		}
		sched[r.ID] = choice
		mark(choice)
	}
	return sched, nil
}

// Solve runs the full offline pipeline with the GWMIN greedy the paper uses
// (Section 4.3): build the reduction, solve MWIS, derive the schedule.
// With opts.Workers > 1 both graph construction and the component-parallel
// solve run concurrently; the schedule and stats are bit-identical for
// every worker count.
func Solve(reqs []core.Request, locations func(core.BlockID) []core.DiskID, cfg power.Config, opts BuildOptions) (core.Schedule, Stats, error) {
	in, err := Build(reqs, locations, cfg, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	var selected []int
	if opts.HybridExactLimit > 0 {
		selected, _ = graph.ParallelHybridMWIS(in.Graph, opts.HybridExactLimit, opts.workerCount())
	} else {
		selected, _ = graph.ParallelGWMIN(in.Graph, opts.workerCount())
	}
	sched, err := in.DeriveSchedule(reqs, locations, selected)
	if err != nil {
		return nil, Stats{}, err
	}
	st, err := Evaluate(reqs, sched, cfg, locations)
	return sched, st, err
}

// SolveExact is Solve with the exact branch-and-bound MWIS solver; only
// viable on small instances (tests, worked examples).
func SolveExact(reqs []core.Request, locations func(core.BlockID) []core.DiskID, cfg power.Config) (core.Schedule, Stats, error) {
	in, err := Build(reqs, locations, cfg, BuildOptions{})
	if err != nil {
		return nil, Stats{}, err
	}
	selected, _ := graph.ExactMWIS(in.Graph)
	sched, err := in.DeriveSchedule(reqs, locations, selected)
	if err != nil {
		return nil, Stats{}, err
	}
	st, err := Evaluate(reqs, sched, cfg, locations)
	return sched, st, err
}

// Gadget builds the Theorem 3 NP-completeness reduction from an arbitrary
// graph G: disks are G's vertices; every edge e=(u,v) contributes a request
// r_e replicated on disks u and v plus dummy requests r_eu (only on u) and
// r_ev (only on v) at the same arrival time, with consecutive edge groups
// separated by more than the replacement window.
func Gadget(n int, edges [][2]int, cfg power.Config) ([]core.Request, func(core.BlockID) []core.DiskID, error) {
	if n <= 0 {
		return nil, nil, fmt.Errorf("offline: gadget needs vertices, got %d", n)
	}
	sep := cfg.ReplacementWindow() + time.Second
	var reqs []core.Request
	locs := make([][]core.DiskID, 0, 3*len(edges))
	addReq := func(at time.Duration, disks ...core.DiskID) {
		b := core.BlockID(len(locs))
		locs = append(locs, disks)
		reqs = append(reqs, core.Request{ID: core.RequestID(len(reqs)), Block: b, Arrival: at})
	}
	for idx, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || v < 0 || u >= n || v >= n || u == v {
			return nil, nil, fmt.Errorf("offline: gadget edge %d = (%d,%d) invalid for %d vertices", idx, u, v, n)
		}
		at := time.Duration(idx+1) * sep
		addReq(at, core.DiskID(u), core.DiskID(v)) // r_e
		addReq(at, core.DiskID(u))                 // r_eu
		addReq(at, core.DiskID(v))                 // r_ev
	}
	lookup := func(b core.BlockID) []core.DiskID {
		if b < 0 || int(b) >= len(locs) {
			return nil
		}
		return locs[b]
	}
	return reqs, lookup, nil
}
