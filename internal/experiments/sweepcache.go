package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
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
// stream and rf=3 placement.
// An optional on-disk tier (SetDir) persists complete sweeps across
// processes for cmd/figures; entries are keyed by the same canonical hash,
// so any input change simply misses and old files become unreachable.
// Corrupt or mismatched disk entries are ignored and recomputed.
//
// Two kinds of callers bypass the cache by construction: Scale.Doctor runs
// (runtime verification must observe a live event stream, so a memoized
// result would defeat the monitors) and, trivially, any key never seen.
// Telemetry (Scale.Monitor) is excluded from the key — it never influences
// results — and a lookup reports the cells it did not simulate to the
// monitor as instantly completed.
type SweepCache struct {
	mu      sync.Mutex
	entries map[string]*sweepEntry
	layouts map[layoutKey]zipf1Placements
	dir     string

	hits     atomic.Uint64 // lookups served from memory
	diskHits atomic.Uint64 // lookups served from the on-disk tier
	misses   atomic.Uint64 // lookups that simulated at least one cell
	bypasses atomic.Uint64 // doctored lookups served fresh, uncached
}

// sweepEntry is one key's sweep grid: a slot per cell, rf-major as
// ReplicationSweep.Runs lists them, and the inputs its cells share, each
// built once on first use.
type sweepEntry struct {
	probe sync.Once // the disk-tier read, made by the entry's first lookup

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

// NewSweepCache returns an empty cache with no on-disk tier.
func NewSweepCache() *SweepCache {
	return &SweepCache{
		entries: make(map[string]*sweepEntry),
		layouts: make(map[layoutKey]zipf1Placements),
	}
}

// defaultSweepCache is the process-wide tier shared by SweepReplication and
// every figure function.
var defaultSweepCache = NewSweepCache()

// DefaultSweepCache returns the process-wide cache consulted by
// SweepReplication.
func DefaultSweepCache() *SweepCache { return defaultSweepCache }

// SetDir enables the on-disk tier rooted at dir (created if missing); an
// empty dir disables it. Call before the first Sweep.
func (c *SweepCache) SetDir(dir string) error {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	c.mu.Lock()
	c.dir = dir
	c.mu.Unlock()
	return nil
}

// CacheStats is a point-in-time snapshot of the lookup counters. A lookup
// is one Sweep, Figure9, Figure10 or Figure12 call.
type CacheStats struct {
	Hits     uint64 // served from memory
	DiskHits uint64 // served from the on-disk tier
	Misses   uint64 // simulated at least one cell
	Bypasses uint64 // doctored, served fresh and uncached
}

// Stats returns the cache's counters.
func (c *SweepCache) Stats() CacheStats {
	return CacheStats{
		Hits:     c.hits.Load(),
		DiskHits: c.diskHits.Load(),
		Misses:   c.misses.Load(),
		Bypasses: c.bypasses.Load(),
	}
}

// String renders the counters ("hits=3 disk_hits=0 misses=1 bypasses=0").
func (s CacheStats) String() string {
	return fmt.Sprintf("hits=%d disk_hits=%d misses=%d bypasses=%d",
		s.Hits, s.DiskHits, s.Misses, s.Bypasses)
}

// sweepKey computes the canonical content hash of everything a replication
// sweep's results depend on: every Scale value field, the trace, the sweep
// axes (replication factors, algorithm set), the cost function and the
// storage system configuration. Monitor (telemetry) and Doctor
// (verification) never influence results and are excluded — doctored runs
// bypass the cache entirely.
func sweepKey(s Scale, tr Trace, cost sched.CostConfig) string {
	ks := s
	ks.Monitor = nil // pointer: nondeterministic and result-neutral
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
	_, runs, err := c.lookup(s, tr, "replication", all)
	if err != nil {
		return nil, err
	}
	return &ReplicationSweep{Trace: tr, Scale: s, RFs: ReplicationFactors(), Runs: gridRuns(runs)}, nil
}

// lookup returns the runs of the grid cells want (see gridCells), in want's
// order, and the entry holding them, whose inputs callers may reuse. A
// lookup that wants the whole grid, in grid order, and simulated any of it
// persists the sweep to the disk tier. name labels the lookup's telemetry.
func (c *SweepCache) lookup(s Scale, tr Trace, name string, want []int) (*sweepEntry, []Run, error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	tk := s.Monitor.Track(name+":"+tr.String(), len(want))
	defer tk.Finish()
	e, key, dir := c.entry(s, tr)
	if s.Doctor {
		c.count(s, &c.bypasses, "bypass")
		runs, _, err := e.runs(s, want, tk)
		return e, runs, err
	}
	loaded := false
	e.probe.Do(func() {
		var runs []Run
		if runs, loaded = loadSweepFile(dir, key); loaded {
			e.fill(runs)
		}
	})
	runs, simulated, err := e.runs(s, want, tk)
	switch {
	case simulated:
		c.count(s, &c.misses, "miss")
	case err != nil: // a cell another call claimed failed; counted there
	case loaded:
		c.count(s, &c.diskHits, "disk_hit")
	default:
		c.count(s, &c.hits, "hit")
	}
	if err != nil {
		return nil, nil, err
	}
	if simulated && len(want) == len(e.cells) {
		writeSweepFile(dir, key, tr, runs)
	}
	return e, runs, nil
}

// entry returns (s, tr)'s entry, created empty on first use, with its key
// and the disk tier's directory. A doctored scale gets a fresh entry that
// no other call shares; only its placements are the cache's.
func (c *SweepCache) entry(s Scale, tr Trace) (e *sweepEntry, key, dir string) {
	if !s.Doctor {
		key = sweepKey(s, tr, sched.DefaultCost(storage.DefaultConfig().Power))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if s.Doctor {
		return c.newEntry(s, tr), "", ""
	}
	e, ok := c.entries[key]
	if !ok {
		e = c.newEntry(s, tr)
		c.entries[key] = e
	}
	return e, key, c.dir
}

// runs returns the runs of the cells want, in want's order, and whether
// this call simulated any. It claims the cells no lookup has claimed yet
// and simulates them on the worker pool longest first (the offline MWIS
// cells, whose solve dominates a sweep, by descending replication factor,
// then the rest), so the largest cell does not run alone at the end; then
// it waits for the cells other lookups claimed.
func (e *sweepEntry) runs(s Scale, want []int, tk *SweepTracker) ([]Run, bool, error) {
	slots := make([]*cellSlot, len(want))
	own := make([]bool, len(want))
	var mine []int // positions in want that this call claimed
	e.mu.Lock()
	for p, i := range want {
		if e.cells[i] == nil {
			e.cells[i] = &cellSlot{done: make(chan struct{})}
			own[p] = true
			mine = append(mine, p)
		}
		slots[p] = e.cells[i]
	}
	e.mu.Unlock()

	slices.SortStableFunc(mine, func(a, b int) int { return mwisRank(want[b]) - mwisRank(want[a]) })
	err := runParallel(len(mine), s.Parallelism, nil, func(j int) error {
		p := mine[j]
		tk.cellStart(p)
		sl := slots[p]
		sl.run, sl.err = e.simulate(s, want[p])
		tk.cellEnd(p, sl.err)
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
		if !own[p] {
			tk.cellStart(p)
			tk.cellEnd(p, nil)
		}
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

// fill stores a loaded sweep's runs, in grid order, as completed cells. It
// runs inside the entry's probe, before any lookup claims a cell.
func (e *sweepEntry) fill(runs []Run) {
	done := make(chan struct{})
	close(done)
	for i, r := range runs {
		e.cells[i] = &cellSlot{done: done, run: r}
	}
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

// count records a lookup outcome in its counter and publishes it to the
// scale's telemetry collector (if any), so live /metrics scrapes see
// hit/miss rates.
func (c *SweepCache) count(s Scale, n *atomic.Uint64, outcome string) {
	n.Add(1)
	if s.Monitor == nil {
		return
	}
	s.Monitor.col.Counter("esched_sweepcache_lookups_total",
		"Sweep-cache lookups by outcome.",
		obs.Label{Key: "outcome", Value: outcome}).Inc()
}

// diskSweep is the on-disk entry format. Version and Key double-check the
// filename so a renamed or truncated file is treated as corrupt, not
// trusted.
type diskSweep struct {
	Version int
	Key     string
	Trace   Trace
	RFs     []int
	Runs    map[int][]Run
}

const diskSweepVersion = 1

func sweepPath(dir, key string) string {
	return filepath.Join(dir, "sweep-"+key+".json")
}

// loadSweepFile reads one on-disk entry and returns its runs in grid
// order; any error (missing, corrupt JSON, version or key mismatch, a grid
// it does not cover) reports a miss so the sweep is recomputed and the
// entry rewritten.
func loadSweepFile(dir, key string) ([]Run, bool) {
	if dir == "" {
		return nil, false
	}
	raw, err := os.ReadFile(sweepPath(dir, key))
	if err != nil {
		return nil, false
	}
	var d diskSweep
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, false
	}
	if d.Version != diskSweepVersion || d.Key != key {
		return nil, false
	}
	var runs []Run
	for _, rf := range ReplicationFactors() {
		if len(d.Runs[rf]) != len(Algorithms()) {
			return nil, false
		}
		runs = append(runs, d.Runs[rf]...)
	}
	return runs, true
}

// writeSweepFile persists a whole grid's runs, atomically via rename so a
// crashed or concurrent writer never leaves a half-written file to be
// misread (a corrupt file would only cost a recompute anyway). Errors are
// deliberately dropped: the disk tier is an optimization, never a
// correctness dependency.
func writeSweepFile(dir, key string, tr Trace, runs []Run) {
	if dir == "" {
		return
	}
	raw, err := json.Marshal(diskSweep{
		Version: diskSweepVersion,
		Key:     key,
		Trace:   tr,
		RFs:     ReplicationFactors(),
		Runs:    gridRuns(runs),
	})
	if err != nil {
		return
	}
	tmp, err := os.CreateTemp(dir, "sweep-*.tmp")
	if err != nil {
		return
	}
	_, werr := tmp.Write(raw)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), sweepPath(dir, key)); err != nil {
		os.Remove(tmp.Name())
	}
}
