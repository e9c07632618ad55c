package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/storage"
)

// SweepCache is a content-addressed memo of replication sweeps. The paper
// derives Figures 6/7/8/13 from one Cello sweep and Figures 14/15/16 from
// one Financial sweep; the cache makes that sharing explicit: the first
// Sweep call for a (Scale, Trace, cost, system-config) key simulates, every
// later call returns the stored result. An optional on-disk tier (SetDir)
// persists results across processes for cmd/figures; entries are keyed by
// the same canonical hash, so any input change simply misses and old files
// become unreachable. Corrupt or mismatched disk entries are ignored and
// recomputed.
//
// Two kinds of callers bypass the cache by construction: Scale.Doctor runs
// (runtime verification must observe a live event stream, so a memoized
// result would defeat the monitors) and, trivially, any key never seen.
// Telemetry (Scale.Monitor) is excluded from the key — it never influences
// results — and a cache hit reports its cells to the monitor as instantly
// completed.
type SweepCache struct {
	mu      sync.Mutex
	entries map[string]*sweepEntry
	dir     string

	hits     atomic.Uint64 // in-memory hits
	diskHits atomic.Uint64 // on-disk tier hits (subset of misses on memory)
	misses   atomic.Uint64 // full simulations
	bypasses atomic.Uint64 // doctored sweeps served fresh, uncached
}

// sweepEntry is one single-flight slot: concurrent Sweep calls for the same
// key share one computation.
type sweepEntry struct {
	once sync.Once
	sw   *ReplicationSweep
	err  error
	disk bool // filled from the on-disk tier rather than simulated
}

// NewSweepCache returns an empty cache with no on-disk tier.
func NewSweepCache() *SweepCache {
	return &SweepCache{entries: make(map[string]*sweepEntry)}
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

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	Hits     uint64 // served from memory
	DiskHits uint64 // served from the on-disk tier
	Misses   uint64 // simulated
	Bypasses uint64 // doctored sweeps served fresh, uncached
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

// Sweep returns the replication sweep for (s, tr), simulating it at most
// once per key: concurrent callers single-flight on the first computation
// and later callers share the stored result (field-identical to a fresh
// run; callers treat it as read-only). Doctored scales bypass the cache in
// both directions.
func (c *SweepCache) Sweep(s Scale, tr Trace) (*ReplicationSweep, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Doctor {
		c.bypasses.Add(1)
		c.observe(s, "bypass")
		return sweepReplicationFresh(s, tr)
	}
	key := sweepKey(s, tr, sched.DefaultCost(storage.DefaultConfig().Power))
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &sweepEntry{}
		c.entries[key] = e
	}
	dir := c.dir
	c.mu.Unlock()

	hit := true
	e.once.Do(func() {
		hit = false
		if sw, ok := loadSweepFile(dir, key); ok {
			e.sw, e.disk = sw, true
			c.diskHits.Add(1)
			c.observe(s, "disk_hit")
			c.completeInstantly(s, tr)
			return
		}
		c.misses.Add(1)
		c.observe(s, "miss")
		e.sw, e.err = sweepReplicationFresh(s, tr)
		if e.err == nil {
			writeSweepFile(dir, key, e.sw)
		}
	})
	if hit {
		if e.err == nil {
			c.hits.Add(1)
			c.observe(s, "hit")
			c.completeInstantly(s, tr)
		}
	}
	if e.err != nil {
		return nil, e.err
	}
	// The caller's Scale (telemetry, parallelism knobs) replaces the stored
	// one in the returned view; the key guarantees every result-bearing
	// field is equal.
	if e.disk || hit {
		sw := *e.sw
		sw.Scale = s
		return &sw, nil
	}
	return e.sw, nil
}

// observe publishes a lookup outcome to the scale's telemetry collector (a
// no-op without a monitor) so live /metrics scrapes see hit/miss rates.
func (c *SweepCache) observe(s Scale, outcome string) {
	if s.Monitor == nil {
		return
	}
	s.Monitor.col.Counter("esched_sweepcache_lookups_total",
		"Sweep-cache lookups by outcome.",
		obs.Label{Key: "outcome", Value: outcome}).Inc()
}

// completeInstantly reports a cache hit to the scale's telemetry monitor as
// a sweep whose cells all finished immediately, so dashboards watching
// per-cell progress see the hit rather than a silent gap.
func (c *SweepCache) completeInstantly(s Scale, tr Trace) {
	if s.Monitor == nil {
		return
	}
	n := len(ReplicationFactors()) * len(Algorithms())
	tk := s.Monitor.Track("replication:"+tr.String(), n)
	for i := 0; i < n; i++ {
		tk.cellStart(i)
		tk.cellEnd(i, nil)
	}
	tk.Finish()
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

// loadSweepFile reads one on-disk entry; any error (missing, corrupt JSON,
// version or key mismatch) reports a miss so the sweep is recomputed and
// the entry rewritten.
func loadSweepFile(dir, key string) (*ReplicationSweep, bool) {
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
	if d.Version != diskSweepVersion || d.Key != key || d.Runs == nil {
		return nil, false
	}
	return &ReplicationSweep{Trace: d.Trace, RFs: d.RFs, Runs: d.Runs}, true
}

// writeSweepFile persists one entry, atomically via rename so a crashed or
// concurrent writer never leaves a half-written file to be misread (a
// corrupt file would only cost a recompute anyway). Errors are deliberately
// dropped: the disk tier is an optimization, never a correctness
// dependency.
func writeSweepFile(dir, key string, sw *ReplicationSweep) {
	if dir == "" {
		return
	}
	raw, err := json.Marshal(diskSweep{
		Version: diskSweepVersion,
		Key:     key,
		Trace:   sw.Trace,
		RFs:     sw.RFs,
		Runs:    sw.Runs,
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
