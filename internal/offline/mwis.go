package offline

import (
	"fmt"
	"math"
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
	// Workers bounds the goroutines that generate vertices (the per-disk
	// successor scans are independent). 0 or 1 means serial. Results are
	// bit-identical for every worker count.
	Workers int
}

// maxVertices is the most vertices a reduction holds: off indexes the two
// mentions of every vertex in int32.
const maxVertices = math.MaxInt32 / 2

// arc is a vertex as its disk's successor scan generates it; the disk is
// the scan's own.
type arc struct {
	i, j int32
	w    float64
}

// diskArcs is the vertices one disk's successor scan generated.
type diskArcs struct {
	disk int32
	arcs []arc
}

// reduce builds the reduction's vertices (Step 1: one for every non-zero
// X(i,j,k), Eqs. 3-4) and the request ranges and tallies its conflicts
// (Step 2) follow from. Request IDs must be a permutation of
// 0..len(reqs)-1 and disk IDs lie in [0, MaxInt32], so that both fit the
// reduction's int32 columns.
//
// Construction is allocation-lean and sharded: replica membership is
// gathered into one sorted (disk, request) run instead of a map of slices,
// and each disk's successor scan runs independently (concurrently when
// opts.Workers > 1) into a pre-counted arc slice. The result is
// bit-identical to the serial construction for every worker count.
func reduce(reqs []core.Request, locations func(core.BlockID) []core.DiskID, cfg power.Config, opts BuildOptions) (*reduction, error) {
	gm := newGapModel(cfg)
	if len(reqs) > math.MaxInt32 {
		return nil, fmt.Errorf("offline: %d requests, more than the %d the reduction indexes", len(reqs), math.MaxInt32)
	}

	// Step 0: one sorted run of (disk, request index) pairs replaces the
	// per-disk map of request copies. Packing both into a uint64 keyed by
	// disk groups the run by disk after a single sort. Capacity assumes the
	// common 3-way replication; higher factors regrow geometrically.
	pairs := make([]uint64, 0, 3*len(reqs))
	seen := make([]bool, len(reqs))
	for i, r := range reqs {
		if r.ID < 0 || int(r.ID) >= len(reqs) || seen[r.ID] {
			return nil, fmt.Errorf("offline: request %d at index %d: request IDs must be a permutation of 0..%d", r.ID, i, len(reqs)-1)
		}
		seen[r.ID] = true
		locs := locations(r.Block)
		if len(locs) == 0 {
			return nil, fmt.Errorf("offline: request %d block %d has no locations", r.ID, r.Block)
		}
		for _, d := range locs {
			if d < 0 || d > math.MaxInt32 {
				return nil, fmt.Errorf("offline: request %d block %d on disk %d, outside [0, %d]", r.ID, r.Block, d, math.MaxInt32)
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
	// (window arithmetic only) pre-sizes the arc slice exactly once.
	limit := maxVertices
	if opts.MaxNodes > 0 {
		limit = min(limit, opts.MaxNodes)
	}
	tooMany := func() error {
		if limit == opts.MaxNodes {
			return fmt.Errorf("offline: MWIS graph exceeds %d nodes", limit)
		}
		return fmt.Errorf("offline: MWIS reduction exceeds %d vertices, the most its int32 indexes hold", limit)
	}
	arcsByShard := make([]diskArcs, len(shards))
	var built atomic.Int64 // arcs completed by finished shards
	var exceeded atomic.Bool
	buildShard := func(si int) {
		sh := shards[si]
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
		// MaxSuccessors — an upper bound on accepted arcs.
		upper := 0
		for i := 0; i < len(run); i++ {
			ti := reqs[uint32(run[i])].Arrival
			c := 0
			for j := i + 1; j < len(run); j++ {
				if reqs[uint32(run[j])].Arrival-ti >= gm.window {
					break
				}
				c++
				if opts.MaxSuccessors > 0 && c >= opts.MaxSuccessors {
					break
				}
			}
			upper += c
		}
		arcs := make([]arc, 0, upper)
		for i := 0; i < len(run); i++ {
			ri := reqs[uint32(run[i])]
			succ := 0
			for j := i + 1; j < len(run); j++ {
				rj := reqs[uint32(run[j])]
				if rj.Arrival-ri.Arrival >= gm.window {
					break
				}
				w := gm.saving(rj.Arrival - ri.Arrival)
				if w <= 0 {
					continue
				}
				arcs = append(arcs, arc{int32(ri.ID), int32(rj.ID), w})
				if built.Load()+int64(len(arcs)) > int64(limit) {
					exceeded.Store(true)
					return
				}
				succ++
				if opts.MaxSuccessors > 0 && succ >= opts.MaxSuccessors {
					break
				}
			}
		}
		built.Add(int64(len(arcs)))
		arcsByShard[si] = diskArcs{int32(pairs[sh.lo] >> 32), arcs}
	}
	if workers := min(opts.Workers, len(shards)); workers <= 1 {
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
		return nil, tooMany()
	}
	total := 0
	for _, da := range arcsByShard {
		total += len(da.arcs)
	}
	if total > limit {
		return nil, tooMany()
	}
	return newReduction(orderNodes(arcsByShard, total)), nil
}

// columns is the reduction's vertex table, one int32 or float64 column per
// field: vertex v is X(i[v], j[v], disk[v]) and saves w[v] joules. It costs
// 20 bytes per vertex where a []Node costs 32.
type columns struct {
	i, j, disk []int32
	w          []float64
}

// node returns vertex v as a Node.
func (c columns) node(v int) Node {
	return Node{I: core.RequestID(c.i[v]), J: core.RequestID(c.j[v]), Disk: core.DiskID(c.disk[v]), Weight: c.w[v]}
}

// nodes expands the columns into the []Node Build returns.
func (c columns) nodes() []Node {
	nodes := make([]Node, len(c.w))
	for v := range nodes {
		nodes[v] = c.node(v)
	}
	return nodes
}

// bucketVertex is a vertex of one i bucket while orderNodes sorts the
// bucket.
type bucketVertex struct {
	j, disk int32
	w       float64
}

// orderNodes merges the shards' arcs into the vertex columns in the
// deterministic order (i, j, disk), whatever the shard or worker schedule;
// the triple is unique per vertex, so the order is total. A counting
// scatter by i buckets the arcs, releasing each shard's buffer once it is
// scattered, then each bucket is ordered by (j, disk). A bucket holds a
// request's successors on its disks, so it is short; the comparison sort
// also covers the long buckets of an uncapped reduction and request IDs
// out of arrival order.
func orderNodes(shards []diskArcs, total int) columns {
	nreq := 0
	for _, da := range shards {
		for _, a := range da.arcs {
			nreq = max(nreq, int(a.i)+1)
		}
	}
	end := make([]int32, nreq) // bucket starts, then, after the scatter, ends
	for _, da := range shards {
		for _, a := range da.arcs {
			end[a.i]++
		}
	}
	var sum int32
	for i, c := range end {
		end[i] = sum
		sum += c
	}
	c := columns{i: make([]int32, total), j: make([]int32, total), disk: make([]int32, total), w: make([]float64, total)}
	for s := range shards {
		d := shards[s].disk
		for _, a := range shards[s].arcs {
			v := end[a.i]
			c.i[v], c.j[v], c.disk[v], c.w[v] = a.i, a.j, d, a.w
			end[a.i]++
		}
		shards[s].arcs = nil
	}
	var bucket []bucketVertex
	lo := int32(0)
	for _, hi := range end {
		if hi-lo > 1 {
			bucket = bucket[:0]
			for v := lo; v < hi; v++ {
				bucket = append(bucket, bucketVertex{c.j[v], c.disk[v], c.w[v]})
			}
			slices.SortFunc(bucket, cmpJDisk)
			for k, s := range bucket {
				v := lo + int32(k)
				c.j[v], c.disk[v], c.w[v] = s.j, s.disk, s.w
			}
		}
		lo = hi
	}
	return c
}

// cmpJDisk orders the vertices of one i bucket by (j, disk).
func cmpJDisk(a, b bucketVertex) int {
	if a.j != b.j {
		return int(a.j) - int(b.j)
	}
	return int(a.disk) - int(b.disk)
}

// reduction is the MWIS reduction of Section 3.1.2 before any edge is
// materialised: the vertices, each request's range of the vertices that
// mention it, and alive tallies from which every vertex's residual degree
// follows in O(1). Build compiles it into a CSR graph; Solve runs GWMIN on
// it directly.
//
// Within request r's range a vertex either leaves r (i == r) or enters it
// (j == r). Two vertices conflict when they share the predecessor i
// (energy constraint) or a request on different disks (schedule
// constraint). Two vertices entering r from the same i are the pair (i,r)
// on two disks; they meet again in i's range and are an edge from there
// only, so every edge belongs to exactly one range (see conflicts).
type reduction struct {
	columns
	off  []int32   // request r's range is ms[off[r]:off[r+1]]
	ms   []mention // the two mentions of every vertex, grouped by request
	vs   []vtally  // per vertex: where its slot and run tallies are kept
	req  []tally   // per request: alive vertices leaving and entering it
	slot []tally   // per (request, disk) slot: the same, on that disk only
	pair []int32   // alive vertices of the (i, j) run headed by the index
}

// mention is a vertex as its range sees it: its predecessor and its disk.
type mention struct{ v, i, disk int32 }

// vtally locates three of a vertex's five tallies: its (i, disk) and
// (j, disk) slots and the head of its (i, j) run. The other two are its
// requests i and j, in the columns.
type vtally struct{ si, sj, p int32 }

// tally counts alive vertices leaving (i == r) and entering (j == r) a
// request r.
type tally struct{ leave, enter int32 }

// newReduction indexes the vertex columns, sorted by (i, j, disk), under
// the requests they mention and tallies them all alive.
func newReduction(c columns) *reduction {
	n := len(c.w)
	rd := &reduction{columns: c, ms: make([]mention, 2*n), vs: make([]vtally, n), pair: make([]int32, n)}
	// The ranges: a counting sort of the mentions by request. Scattering in
	// vertex order leaves every range ascending.
	nreq, disks := 0, 0
	for v := range n {
		nreq = max(nreq, int(c.i[v])+1, int(c.j[v])+1)
		disks = max(disks, int(c.disk[v])+1)
	}
	rd.off = make([]int32, nreq+1)
	for v := range n {
		rd.off[c.i[v]+1]++
		rd.off[c.j[v]+1]++
	}
	for r := range nreq {
		rd.off[r+1] += rd.off[r]
	}
	next := slices.Clone(rd.off[:nreq])
	for v := range n {
		i, j := c.i[v], c.j[v]
		m := mention{int32(v), i, c.disk[v]}
		rd.ms[next[i]] = m
		next[i]++
		rd.ms[next[j]] = m
		next[j]++
		// Vertices sort by (i, j, disk), so an (i, j) run is contiguous.
		p := int32(v)
		if v > 0 && c.i[v-1] == i && c.j[v-1] == j {
			p = rd.vs[v-1].p
		}
		rd.vs[v].p = p
	}
	// One slot per disk a range holds, numbered range by range.
	slotOf := make([]int32, disks)
	for d := range slotOf {
		slotOf[d] = -1
	}
	var slots int32
	for r := range nreq {
		ms := rd.mentions(int32(r))
		for _, m := range ms {
			if slotOf[m.disk] < 0 {
				slotOf[m.disk] = slots
				slots++
			}
			if m.i == int32(r) {
				rd.vs[m.v].si = slotOf[m.disk]
			} else {
				rd.vs[m.v].sj = slotOf[m.disk]
			}
		}
		for _, m := range ms {
			slotOf[m.disk] = -1
		}
	}
	rd.req, rd.slot = make([]tally, nreq), make([]tally, slots)
	for v := range n {
		rd.count(v, 1)
	}
	return rd
}

// mentions returns request r's range, in vertex order.
func (rd *reduction) mentions(r int32) []mention { return rd.ms[rd.off[r]:rd.off[r+1]] }

// count adds by to each of vertex v's five tallies: +1 when it is tallied
// alive, -1 when it is deleted.
func (rd *reduction) count(v int, by int32) {
	x := rd.vs[v]
	rd.req[rd.i[v]].leave += by
	rd.req[rd.j[v]].enter += by
	rd.slot[x.si].leave += by
	rd.slot[x.sj].enter += by
	rd.pair[x.p] += by
}

// degree returns the number of alive vertices conflicting with the alive
// vertex v = (i, j, d). In i's range v leaves i: it conflicts with every
// other vertex leaving i and with every vertex entering i on another disk.
// In j's range v enters j from i: it conflicts with every vertex leaving j
// on another disk, and with every vertex entering j on another disk except
// the rest of the (i, j) run, which shares v's predecessor and was counted
// in i's range.
func (rd *reduction) degree(v int) int32 {
	x := rd.vs[v]
	ri, rj, si, sj := rd.req[rd.i[v]], rd.req[rd.j[v]], rd.slot[x.si], rd.slot[x.sj]
	return ri.leave - 1 + ri.enter - si.enter +
		rj.leave - sj.leave + rj.enter - sj.enter - (rd.pair[x.p] - 1)
}

// conflicts reports whether a and b, two distinct vertices of request r's
// range, are an edge owned by this range: both leave r, or their
// predecessors and their disks both differ.
func conflicts(r int32, a, b mention) bool {
	return a.i == b.i && a.i == r || a.i != b.i && a.disk != b.disk
}

// gwmin runs GWMIN on the reduction without building its graph: residual
// degrees come from the alive tallies, and taking a vertex scans its two
// ranges for the alive vertices it conflicts with, each deleted by
// decrementing five tallies. The selection, order included, is
// graph.GWMIN's on Build's graph.
func (rd *reduction) gwmin() []int {
	alive := make([]bool, len(rd.w))
	for v := range alive {
		alive[v] = true
	}
	del := func(v int) {
		alive[v] = false
		rd.count(v, -1)
	}
	return graph.GWMINResidual(rd.w, alive,
		func(v int) int { return int(rd.degree(v)) },
		func(v int) {
			i, j := rd.i[v], rd.j[v]
			self := mention{int32(v), i, rd.disk[v]}
			for _, r := range [2]int32{i, j} {
				for _, m := range rd.mentions(r) {
					if alive[m.v] && m.v != self.v && conflicts(r, self, m) {
						del(int(m.v))
					}
				}
			}
			del(v)
		})
}

// Build constructs the MWIS reduction of Section 3.1.2 for a request
// stream as a graph: Step 1 adds a vertex for every non-zero X(i,j,k)
// (Eqs. 3-4), Step 2 adds an edge for every energy-constraint violation
// (same i) and schedule-constraint violation (shared request, different
// disk). The edges are yielded range by range, and the degrees graph.New
// needs are the reduction's tallied ones, so no pair is walked twice.
// Solve never calls it; it serves the exact solver, the Figure 4
// walkthrough and callers that inspect the graph.
func Build(reqs []core.Request, locations func(core.BlockID) []core.DiskID, cfg power.Config, opts BuildOptions) (*Instance, error) {
	rd, err := reduce(reqs, locations, cfg, opts)
	if err != nil {
		return nil, err
	}
	deg := make([]int32, len(rd.w))
	for v := range deg {
		deg[v] = rd.degree(v)
	}
	g := graph.New(rd.w, deg, func(yield func(u, v int)) {
		for r := range int32(len(rd.off) - 1) {
			ms := rd.mentions(r)
			for a, mu := range ms {
				for _, mv := range ms[a+1:] {
					if conflicts(r, mu, mv) {
						yield(int(mu.v), int(mv.v))
					}
				}
			}
		}
	})
	return &Instance{Graph: g, Nodes: rd.nodes()}, nil
}

// DeriveSchedule is Step 4 of the algorithm: requests appearing in selected
// nodes go to those nodes' disks; requests with no selected node cannot
// save energy anywhere and are placed on a replica already in use when
// possible, else their original location.
func (in *Instance) DeriveSchedule(reqs []core.Request, locations func(core.BlockID) []core.DiskID, selected []int) (core.Schedule, error) {
	return deriveSchedule(len(in.Nodes), func(v int) Node { return in.Nodes[v] }, reqs, locations, selected)
}

// deriveSchedule is DeriveSchedule over n vertices, node(v) returning
// vertex v.
func deriveSchedule(n int, node func(v int) Node, reqs []core.Request, locations func(core.BlockID) []core.DiskID, selected []int) (core.Schedule, error) {
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
		if v < 0 || v >= n {
			return nil, fmt.Errorf("offline: selected vertex %d out of range", v)
		}
		nd := node(v)
		if err := assign(nd.I, nd.Disk); err != nil {
			return nil, err
		}
		if err := assign(nd.J, nd.Disk); err != nil {
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
// GWMIN runs on the reduction's request ranges, so no conflict graph is
// built. The schedule and stats are bit-identical for every worker count.
func Solve(reqs []core.Request, locations func(core.BlockID) []core.DiskID, cfg power.Config, opts BuildOptions) (core.Schedule, Stats, error) {
	rd, err := reduce(reqs, locations, cfg, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	sched, err := deriveSchedule(len(rd.w), rd.node, reqs, locations, rd.gwmin())
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
