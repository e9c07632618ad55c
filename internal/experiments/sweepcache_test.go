package experiments

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/storage"
)

// cacheScale is a deliberately tiny sweep so cache tests simulate in
// milliseconds; distinct seeds keep tests' keys from colliding with each
// other and with the process-wide default cache.
func cacheScale(seed int64) Scale {
	s := SmallScale()
	s.NumDisks = 10
	s.NumRequests = 600
	s.NumBlocks = 300
	s.Seed = seed
	return s
}

// assertSweepEqual compares two sweeps field by field, bit-exact on every
// float. Response sample sets are compared sample by sample, order
// included.
func assertSweepEqual(t *testing.T, a, b *ReplicationSweep) {
	t.Helper()
	if a.Trace != b.Trace {
		t.Fatalf("Trace %v != %v", a.Trace, b.Trace)
	}
	if !reflect.DeepEqual(a.RFs, b.RFs) {
		t.Fatalf("RFs %v != %v", a.RFs, b.RFs)
	}
	for _, rf := range a.RFs {
		ra, rb := a.Runs[rf], b.Runs[rf]
		if len(ra) != len(rb) {
			t.Fatalf("rf=%d: %d vs %d runs", rf, len(ra), len(rb))
		}
		for i := range ra {
			x, y := ra[i], rb[i]
			if x.Algo != y.Algo || x.NormEnergy != y.NormEnergy ||
				x.SpinUps != y.SpinUps || x.SpinDowns != y.SpinDowns ||
				x.Mean != y.Mean || x.P90 != y.P90 {
				t.Fatalf("rf=%d %s: %+v != %+v", rf, x.Algo, x, y)
			}
			if !reflect.DeepEqual(x.Response, y.Response) {
				t.Fatalf("rf=%d %s: response samples differ", rf, x.Algo)
			}
			if !reflect.DeepEqual(x.PerDisk, y.PerDisk) {
				t.Fatalf("rf=%d %s: per-disk stats differ", rf, x.Algo)
			}
		}
	}
}

func TestSweepCacheHitIsFieldIdenticalToFresh(t *testing.T) {
	t.Parallel()
	s := cacheScale(9001)
	fresh, err := sweepReplicationFresh(s, Cello)
	if err != nil {
		t.Fatal(err)
	}
	c := NewSweepCache()
	first, err := c.Sweep(s, Cello)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Sweep(s, Cello)
	if err != nil {
		t.Fatal(err)
	}
	assertSweepEqual(t, fresh, first)
	assertSweepEqual(t, fresh, second)
	if st := c.Stats(); st.Misses != 1 || st.Hits != 1 || st.Bypasses != 0 {
		t.Fatalf("stats = %+v, want 1 miss + 1 hit", st)
	}
}

func TestSweepCacheKeySensitivity(t *testing.T) {
	t.Parallel()
	base := cacheScale(9002)
	cost := sched.DefaultCost(storage.DefaultConfig().Power)
	baseKey := sweepKey(base, Cello, cost)

	mutations := map[string]func(*Scale){
		"NumDisks":       func(s *Scale) { s.NumDisks++ },
		"NumRequests":    func(s *Scale) { s.NumRequests++ },
		"NumBlocks":      func(s *Scale) { s.NumBlocks++ },
		"Seed":           func(s *Scale) { s.Seed++ },
		"BatchInterval":  func(s *Scale) { s.BatchInterval += time.Millisecond },
		"MWISSuccessors": func(s *Scale) { s.MWISSuccessors++ },
		"MWISMaxNodes":   func(s *Scale) { s.MWISMaxNodes++ },
		"MWISPasses":     func(s *Scale) { s.MWISPasses++ },
		"ZipfSteps":      func(s *Scale) { s.ZipfSteps = append(s.ZipfSteps, 0.9) },
		"Alphas":         func(s *Scale) { s.Alphas = append(s.Alphas, 0.3) },
		"Betas":          func(s *Scale) { s.Betas = append(s.Betas, 42) },
		"Parallelism":    func(s *Scale) { s.Parallelism++ },
		"Workers":        func(s *Scale) { s.Workers++ },
	}
	for field, mutate := range mutations {
		s := base
		// Deep-copy the slices so appends do not alias base.
		s.ZipfSteps = append([]float64(nil), base.ZipfSteps...)
		s.Alphas = append([]float64(nil), base.Alphas...)
		s.Betas = append([]float64(nil), base.Betas...)
		mutate(&s)
		if sweepKey(s, Cello, cost) == baseKey {
			t.Errorf("changing Scale.%s did not change the key", field)
		}
	}

	if sweepKey(base, Financial, cost) == baseKey {
		t.Error("changing the trace did not change the key")
	}

	costMut := map[string]sched.CostConfig{
		"Alpha":           {Alpha: cost.Alpha + 0.1, Beta: cost.Beta, Power: cost.Power},
		"Beta":            {Alpha: cost.Alpha, Beta: cost.Beta + 1, Power: cost.Power},
		"Power.IdlePower": {Alpha: cost.Alpha, Beta: cost.Beta, Power: func() power.Config { p := cost.Power; p.IdlePower += 0.5; return p }()},
	}
	for field, c := range costMut {
		if sweepKey(base, Cello, c) == baseKey {
			t.Errorf("changing CostConfig.%s did not change the key", field)
		}
	}

	// Result-neutral knobs must NOT shift the key: doctoring never
	// influences the measurements (doctored sweeps bypass the cache before
	// the key is even computed).
	s := base
	s.Doctor = true
	if sweepKey(s, Cello, cost) != baseKey {
		t.Error("Doctor changed the key; it is result-neutral")
	}
}

func TestSweepCacheDoctorBypasses(t *testing.T) {
	t.Parallel()
	s := cacheScale(9005)
	s.Doctor = true
	c := NewSweepCache()
	a, err := c.Sweep(s, Cello)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Sweep(s, Cello)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Bypasses != 2 || st.Misses != 0 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want two bypasses and no cache traffic", st)
	}
	// Bypassed (verified) runs still agree with the cached path bit for bit.
	s.Doctor = false
	cached, err := c.Sweep(s, Cello)
	if err != nil {
		t.Fatal(err)
	}
	assertSweepEqual(t, a, b)
	assertSweepEqual(t, a, cached)
}

func TestSweepCacheSingleFlight(t *testing.T) {
	t.Parallel()
	s := cacheScale(9006)
	c := NewSweepCache()
	const callers = 8
	sweeps := make([]*ReplicationSweep, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sw, err := c.Sweep(s, Cello)
			if err != nil {
				t.Error(err)
				return
			}
			sweeps[i] = sw
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != callers-1 {
		t.Fatalf("stats = %+v, want exactly one simulation for %d concurrent callers", st, callers)
	}
	for i := 1; i < callers; i++ {
		assertSweepEqual(t, sweeps[0], sweeps[i])
	}
}

// TestSweepReplicationBuildsEachPlacementOnce pins the sharing discipline:
// a cold sweep constructs exactly one placement per replication factor
// (shared by its five algorithm cells), and a cache hit constructs none.
// Not parallel: it reads the package-wide construction counter. A private
// cache keeps the first sweep genuinely cold under `go test -count N`,
// where the process-wide DefaultSweepCache survives between repetitions.
func TestSweepReplicationBuildsEachPlacementOnce(t *testing.T) {
	c := NewSweepCache()
	s := cacheScale(9007)
	before := placementBuilds.Load()
	if _, err := c.Sweep(s, Cello); err != nil {
		t.Fatal(err)
	}
	cold := placementBuilds.Load() - before
	if want := int64(len(ReplicationFactors())); cold != want {
		t.Fatalf("cold sweep built %d placements, want %d (one per rf)", cold, want)
	}
	before = placementBuilds.Load()
	if _, err := c.Sweep(s, Cello); err != nil {
		t.Fatal(err)
	}
	if warm := placementBuilds.Load() - before; warm != 0 {
		t.Fatalf("cached sweep built %d placements, want 0", warm)
	}
}
