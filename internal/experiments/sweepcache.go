package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/placement"
	"repro/internal/sched"
	"repro/internal/storage"
)

// SweepCache is a content-addressed memo of replication sweeps, held cell
// by cell. The paper derives Figures 6/7/8/13 from one Cello sweep and
// Figures 14/15/16 from one Financial sweep, and Figures 9/17 and 12 view
// the same sweep's replication-factor-3 cells; the cache makes that sharing
// explicit. Every (replication factor, algorithm) cell of a (Scale, Trace,
// cost, system-config) key is a single-flight slot: the first lookup that
// wants a cell simulates it, every later lookup shares the stored Run.
// Sweep wants the whole grid, Figure9 its five rf=3 cells, Figure12 its
// four online rf=3 cells and Figure10 the Random, Static and Heuristic
// cells of every rf, its z=1 row, so each simulates only what no earlier
// call did. Figure11 simulates cells of its own, but on the entry's request
// stream and rf=3 placement. The cache lives only as long as the process,
// so a code change can never be answered with an earlier build's runs.
//
// Scale.Doctor runs bypass the cache: runtime verification must observe a
// live event stream, so a memoized result would defeat the monitors.
type SweepCache struct {
	mu      sync.Mutex
	entries map[string]*sweepEntry
	layouts map[layoutKey]zipf1Placements

	hits     atomic.Uint64 // lookups served from memory
	misses   atomic.Uint64 // lookups that simulated at least one cell
	bypasses atomic.Uint64 // doctored lookups served fresh, uncached
}

// sweepEntry is one key's sweep grid: a slot per cell, rf-major as
// ReplicationSweep.Runs lists them, and the inputs its cells share, each
// built once on first use.
type sweepEntry struct {
	mu    sync.Mutex
	cells []*cellSlot // nil until a lookup claims the cell

	reqs func() []core.Request
	plcs zipf1Placements
}

// zipf1Placements builds each replication factor's Zipf(1) placement of
// one layout once, on first use.
type zipf1Placements map[int]func() (*placement.Placement, error)

// cellSlot is one cell's single-flight slot: run and err are set before
// done is closed.
type cellSlot struct {
	done chan struct{}
	run  Run
	err  error
}

// newEntry returns an empty grid whose inputs derive from s, which the
// key fixes in every field they read. Its z=1 placements are the cache's
// for s's layout, shared with every entry of the same layout (the Cello
// and Financial sweeps of one scale place their blocks alike). c.mu must
// be held.
func (c *SweepCache) newEntry(s Scale, tr Trace) *sweepEntry {
	lk := layoutKey{s.NumDisks, s.NumBlocks, s.Seed}
	plcs, ok := c.layouts[lk]
	if !ok {
		plcs = make(zipf1Placements, len(ReplicationFactors()))
		for _, rf := range ReplicationFactors() {
			plcs[rf] = sync.OnceValues(func() (*placement.Placement, error) { return makePlacement(s, rf, 1) })
		}
		c.layouts[lk] = plcs
	}
	return &sweepEntry{
		cells: make([]*cellSlot, len(ReplicationFactors())*len(Algorithms())),
		reqs:  sync.OnceValue(func() []core.Request { return tr.Requests(s) }),
		plcs:  plcs,
	}
}

// layoutKey holds every Scale field makePlacement reads.
type layoutKey struct {
	numDisks, numBlocks int
	seed                int64
}

// NewSweepCache returns an empty cache.
func NewSweepCache() *SweepCache {
	return &SweepCache{
		entries: make(map[string]*sweepEntry),
		layouts: make(map[layoutKey]zipf1Placements),
	}
}

// defaultSweepCache is the process-wide cache shared by SweepReplication and
// every figure function.
var defaultSweepCache = NewSweepCache()

// DefaultSweepCache returns the process-wide cache consulted by
// SweepReplication.
func DefaultSweepCache() *SweepCache { return defaultSweepCache }

// CacheStats is a point-in-time snapshot of the lookup counters. A lookup
// is one Sweep, Figure9, Figure10 or Figure12 call.
type CacheStats struct {
	Hits     uint64 // served from memory
	Misses   uint64 // simulated at least one cell
	Bypasses uint64 // doctored, served fresh and uncached
}

// Stats returns the cache's counters.
func (c *SweepCache) Stats() CacheStats {
	return CacheStats{
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
		Bypasses: c.bypasses.Load(),
	}
}

// sweepKey computes the canonical content hash of everything a replication
// sweep's results depend on: every Scale value field, the trace, the sweep
// axes (replication factors, algorithm set), the cost function and the
// storage system configuration. Doctor (verification) never influences
// results and is excluded — doctored runs bypass the cache entirely.
func sweepKey(s Scale, tr Trace, cost sched.CostConfig) string {
	ks := s
	ks.Doctor = false
	ks.FlightDir = "" // recorder is an observer, never a participant
	ks.Shards = 0     // deprecated no-op: shard counts share entries
	h := sha256.New()
	fmt.Fprintf(h, "replication-sweep-v1\n")
	fmt.Fprintf(h, "scale=%+v\n", ks)
	fmt.Fprintf(h, "trace=%d\n", int(tr))
	fmt.Fprintf(h, "rfs=%v\n", ReplicationFactors())
	fmt.Fprintf(h, "algos=%q\n", Algorithms())
	fmt.Fprintf(h, "cost=%+v\n", cost)
	fmt.Fprintf(h, "storage=%+v\n", storage.DefaultConfig())
	return hex.EncodeToString(h.Sum(nil))
}

// Sweep returns the replication sweep for (s, tr), simulating each cell
// at most once per key: concurrent callers single-flight on the first
// computation and later callers share the stored runs (field-identical to
// a fresh run; callers treat them as read-only). Doctored scales bypass the
// cache in both directions.
func (c *SweepCache) Sweep(s Scale, tr Trace) (*ReplicationSweep, error) {
	all := make([]int, len(ReplicationFactors())*len(Algorithms()))
	for i := range all {
		all[i] = i
	}
	_, runs, err := c.lookup(s, tr, all)
	if err != nil {
		return nil, err
	}
	return &ReplicationSweep{Trace: tr, Scale: s, RFs: ReplicationFactors(), Runs: gridRuns(runs)}, nil
}

// lookup returns the runs of the grid cells want (see gridCells), in want's
// order, and the entry holding them, whose inputs callers may reuse.
func (c *SweepCache) lookup(s Scale, tr Trace, want []int) (*sweepEntry, []Run, error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	e := c.entry(s, tr)
	runs, simulated, err := e.runs(s, want)
	switch {
	case s.Doctor:
		c.bypasses.Add(1)
	case simulated:
		c.misses.Add(1)
	case err == nil: // else a cell another call claimed failed; counted there
		c.hits.Add(1)
	}
	if err != nil {
		return nil, nil, err
	}
	return e, runs, nil
}

// entry returns (s, tr)'s entry, created empty on first use. A doctored
// scale gets a fresh entry that no other call shares; only its placements
// are the cache's.
func (c *SweepCache) entry(s Scale, tr Trace) *sweepEntry {
	var key string
	if !s.Doctor {
		key = sweepKey(s, tr, sched.DefaultCost(storage.DefaultConfig().Power))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if s.Doctor {
		return c.newEntry(s, tr)
	}
	e, ok := c.entries[key]
	if !ok {
		e = c.newEntry(s, tr)
		c.entries[key] = e
	}
	return e
}

// runs returns the runs of the cells want, in want's order, and whether
// this call simulated any. It claims the cells no lookup has claimed yet
// and simulates them on the worker pool longest first (the offline MWIS
// cells, whose solve dominates a sweep, by descending replication factor,
// then the rest), so the largest cell does not run alone at the end; then
// it waits for the cells other lookups claimed.
func (e *sweepEntry) runs(s Scale, want []int) ([]Run, bool, error) {
	slots := make([]*cellSlot, len(want))
	var mine []int // positions in want that this call claimed
	e.mu.Lock()
	for p, i := range want {
		if e.cells[i] == nil {
			e.cells[i] = &cellSlot{done: make(chan struct{})}
			mine = append(mine, p)
		}
		slots[p] = e.cells[i]
	}
	e.mu.Unlock()

	slices.SortStableFunc(mine, func(a, b int) int { return mwisRank(want[b]) - mwisRank(want[a]) })
	err := runParallel(len(mine), s.Parallelism, func(j int) error {
		p := mine[j]
		sl := slots[p]
		sl.run, sl.err = e.simulate(s, want[p])
		close(sl.done)
		return sl.err
	})
	// The pool stops at the first failure; the cells it never started
	// fail with it, so no waiter blocks on them.
	for _, p := range mine {
		select {
		case <-slots[p].done:
		default:
			slots[p].err = err
			close(slots[p].done)
		}
	}
	claimed := len(mine) > 0
	if err != nil {
		return nil, claimed, err
	}
	out := make([]Run, len(want))
	for p, sl := range slots {
		<-sl.done
		if sl.err != nil {
			return nil, claimed, sl.err
		}
		out[p] = sl.run
	}
	return out, claimed, nil
}

// mwisRank orders grid cell i for dispatch: 1+rf index for an MWIS cell,
// 0 for the rest.
func mwisRank(i int) int {
	algos := Algorithms()
	if algos[i%len(algos)] == AlgoMWIS {
		return 1 + i/len(algos)
	}
	return 0
}

// simulate runs grid cell i on the entry's shared inputs.
func (e *sweepEntry) simulate(s Scale, i int) (Run, error) {
	algos := Algorithms()
	rf, algo := ReplicationFactors()[i/len(algos)], algos[i%len(algos)]
	plc, err := e.plcs[rf]()
	if err != nil {
		return Run{}, err
	}
	run, err := cell(s, e.reqs(), plc, algo, sched.DefaultCost(storage.DefaultConfig().Power))
	if err != nil {
		return Run{}, fmt.Errorf("rf=%d %s: %w", rf, algo, err)
	}
	if run.Response != nil {
		run.P90 = run.Response.Percentile(90)
	}
	return run, nil
}

// gridCells returns the grid indices of the given algorithms' cells at
// replication factor rf.
func gridCells(rf int, algos ...string) []int {
	all := Algorithms()
	base := slices.Index(ReplicationFactors(), rf) * len(all)
	out := make([]int, len(algos))
	for k, algo := range algos {
		out[k] = base + slices.Index(all, algo)
	}
	return out
}

// gridRuns lays a whole grid's runs out by replication factor.
func gridRuns(runs []Run) map[int][]Run {
	n := len(Algorithms())
	m := make(map[int][]Run, len(ReplicationFactors()))
	for k, rf := range ReplicationFactors() {
		m[rf] = runs[k*n : (k+1)*n : (k+1)*n]
	}
	return m
}
