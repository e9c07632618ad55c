package experiments

import (
	"sync"
	"testing"
)

// sweepReplicationFresh simulates every cell of a sweep on a private cache.
func sweepReplicationFresh(s Scale, tr Trace) (*ReplicationSweep, error) {
	return NewSweepCache().Sweep(s, tr)
}

// countCells returns the tables f renders and how many cells it simulated.
// Callers must not run in parallel: it reads the package-wide counter.
func countCells(t *testing.T, f func(Scale, Trace) (*Table, error), s Scale) (string, int64) {
	t.Helper()
	before := simulatedCells.Load()
	tbl, err := f(s, Cello)
	if err != nil {
		t.Fatal(err)
	}
	return tbl.Render(), simulatedCells.Load() - before
}

// TestFiguresSimulateEachSweepCellOnce pins the cell-granular sharing:
// Figure 9 and Figure 12 simulate only their own rf=3 cells when cold and
// nothing after a sweep, and render the same bytes cold and after a sweep.
// Not parallel: it reads the package-wide cell counter.
func TestFiguresSimulateEachSweepCellOnce(t *testing.T) {
	s := cacheScale(9101)

	fig9, n := countCells(t, NewSweepCache().figure9, s)
	if n != int64(len(Algorithms())) {
		t.Fatalf("cold Figure 9 simulated %d cells, want %d", n, len(Algorithms()))
	}
	fig12, n := countCells(t, NewSweepCache().figure12, s)
	if n != int64(len(onlineAlgos())) {
		t.Fatalf("cold Figure 12 simulated %d cells, want %d", n, len(onlineAlgos()))
	}

	swept := NewSweepCache()
	before := simulatedCells.Load()
	if _, err := swept.Sweep(s, Cello); err != nil {
		t.Fatal(err)
	}
	if n := simulatedCells.Load() - before; n != int64(len(ReplicationFactors())*len(Algorithms())) {
		t.Fatalf("cold sweep simulated %d cells", n)
	}
	before = placementBuilds.Load()
	for name, f := range map[string]func(Scale, Trace) (*Table, error){"9": swept.figure9, "12": swept.figure12} {
		got, n := countCells(t, f, s)
		if n != 0 {
			t.Errorf("Figure %s after a sweep simulated %d cells, want 0", name, n)
		}
		if want := map[string]string{"9": fig9, "12": fig12}[name]; got != want {
			t.Errorf("Figure %s after a sweep differs from cold:\n%s\nwant:\n%s", name, got, want)
		}
	}
	if n := placementBuilds.Load() - before; n != 0 {
		t.Errorf("figures after a sweep built %d placements, want 0", n)
	}
}

// TestFigure10ReusesSweepCells pins Figure 10's sharing: its z=1 row is
// the sweep's Random, Static and Heuristic cells on the sweep's
// placements, so after a sweep it simulates only the other 60 of its 75
// cells and builds only the other 20 of its 25 placements, and its table
// is byte-identical either way. Not parallel: it reads the package-wide
// counters.
func TestFigure10ReusesSweepCells(t *testing.T) {
	s := cacheScale(9106)
	s.ZipfSteps = FullScale().ZipfSteps
	points := len(s.ZipfSteps) * len(ReplicationFactors())

	cold, n := countCells(t, NewSweepCache().figure10, s)
	if n != int64(3*points) {
		t.Fatalf("cold Figure 10 simulated %d cells, want %d", n, 3*points)
	}
	swept := NewSweepCache()
	if _, err := swept.Sweep(s, Cello); err != nil {
		t.Fatal(err)
	}
	before := placementBuilds.Load()
	got, n := countCells(t, swept.figure10, s)
	if want := int64(3 * (points - len(ReplicationFactors()))); n != want {
		t.Errorf("Figure 10 after a sweep simulated %d cells, want %d", n, want)
	}
	if n, want := placementBuilds.Load()-before, int64(points-len(ReplicationFactors())); n != want {
		t.Errorf("Figure 10 after a sweep built %d placements, want %d", n, want)
	}
	if got != cold {
		t.Errorf("Figure 10 after a sweep differs from cold:\n%s\nwant:\n%s", got, cold)
	}
}

// TestSweepsShareLayoutPlacements pins the placement sharing across
// entries: the Cello and Financial sweeps of one scale place their blocks
// alike, so a cold Cello sweep, Financial sweep and Figure 10 build the
// five z=1 placements once between them and Figure 10's other 20 once
// each, 25 in all, not 30. The two sweeps run concurrently, so under
// -race they also race on the shared placements, and each must match a
// sweep on a cache of its own. Not parallel: it reads the package-wide
// counter.
func TestSweepsShareLayoutPlacements(t *testing.T) {
	s := cacheScale(9108)
	s.ZipfSteps = FullScale().ZipfSteps
	points := len(s.ZipfSteps) * len(ReplicationFactors())
	traces := []Trace{Cello, Financial}
	var fresh [2]*ReplicationSweep
	for i, tr := range traces {
		var err error
		if fresh[i], err = sweepReplicationFresh(s, tr); err != nil {
			t.Fatal(err)
		}
	}
	c := NewSweepCache()
	before := placementBuilds.Load()
	var shared [2]*ReplicationSweep
	var wg sync.WaitGroup
	for i, tr := range traces {
		wg.Add(1)
		go func(i int, tr Trace) {
			defer wg.Done()
			var err error
			if shared[i], err = c.Sweep(s, tr); err != nil {
				t.Error(err)
			}
		}(i, tr)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if _, err := c.figure10(s, Cello); err != nil {
		t.Fatal(err)
	}
	if n := placementBuilds.Load() - before; n != int64(points) {
		t.Errorf("cold Cello sweep, Financial sweep and Figure 10 built %d placements, want %d", n, points)
	}
	for i := range traces {
		assertSweepEqual(t, fresh[i], shared[i])
	}
}

// TestFigure11ReusesSweepInputs pins Figure 11's sharing: it runs its own
// cells, but on the sweep entry's request stream and rf=3 placement, so
// cold it builds that one placement and after a sweep none, and its table
// is byte-identical either way. Not parallel: it reads the package-wide
// counters.
func TestFigure11ReusesSweepInputs(t *testing.T) {
	s := cacheScale(9107)
	s.Alphas, s.Betas = s.Alphas[:2], s.Betas[:1]
	before := placementBuilds.Load()
	cold, _ := countCells(t, NewSweepCache().figure11, s)
	if n := placementBuilds.Load() - before; n != 1 {
		t.Errorf("cold Figure 11 built %d placements, want 1", n)
	}
	swept := NewSweepCache()
	if _, err := swept.Sweep(s, Cello); err != nil {
		t.Fatal(err)
	}
	before = placementBuilds.Load()
	got, _ := countCells(t, swept.figure11, s)
	if n := placementBuilds.Load() - before; n != 0 {
		t.Errorf("Figure 11 after a sweep built %d placements, want 0", n)
	}
	if got != cold {
		t.Errorf("Figure 11 after a sweep differs from cold:\n%s\nwant:\n%s", got, cold)
	}
}

// TestConcurrentLookupsShareCells races a sweep against Figures 9 and 12
// on one cold key: however their claims interleave, the grid's 25 cells
// are simulated once between them and the sweep matches a fresh one. Not
// parallel: it reads the package-wide cell counter.
func TestConcurrentLookupsShareCells(t *testing.T) {
	s := cacheScale(9105)
	fresh, err := sweepReplicationFresh(s, Cello)
	if err != nil {
		t.Fatal(err)
	}
	c := NewSweepCache()
	before := simulatedCells.Load()
	var sw *ReplicationSweep
	var wg sync.WaitGroup
	calls := []func() error{
		func() (err error) { sw, err = c.Sweep(s, Cello); return err },
		func() error { _, err := c.figure9(s, Cello); return err },
		func() error { _, err := c.figure12(s, Cello); return err },
	}
	for _, call := range calls {
		wg.Add(1)
		go func(call func() error) {
			defer wg.Done()
			if err := call(); err != nil {
				t.Error(err)
			}
		}(call)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if n := simulatedCells.Load() - before; n != int64(len(ReplicationFactors())*len(Algorithms())) {
		t.Fatalf("concurrent lookups simulated %d cells, want each of the grid's once", n)
	}
	assertSweepEqual(t, fresh, sw)
}

// TestFigure12ConcurrentMemoryHit renders Figure 12 from two goroutines
// off the cells a sweep left in memory: the samples are in completion
// order, as the simulation recorded them, and both goroutines query the
// same ones, so under -race any write a rank query makes to them is
// reported.
func TestFigure12ConcurrentMemoryHit(t *testing.T) {
	t.Parallel()
	s := cacheScale(9109)
	c := NewSweepCache()
	if _, err := c.Sweep(s, Cello); err != nil {
		t.Fatal(err)
	}
	renderFigure12Concurrently(t, c, s)
	if st := c.Stats(); st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("stats = %+v, want one miss then two memory hits", st)
	}
}

// renderFigure12Concurrently renders Figure 12 from c in two goroutines
// at once and requires the tables to match.
func renderFigure12Concurrently(t *testing.T, c *SweepCache, s Scale) {
	t.Helper()
	var tables [2]string
	var wg sync.WaitGroup
	for g := range tables {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tbl, err := c.figure12(s, Cello)
			if err != nil {
				t.Error(err)
				return
			}
			tables[g] = tbl.Render()
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if tables[0] != tables[1] {
		t.Fatalf("concurrent renders differ:\n%s\n%s", tables[0], tables[1])
	}
}

// TestSweepIsDispatchOrderInvariant checks that the longest-first dispatch
// changes only when cells run: every worker count yields a field-identical
// sweep.
func TestSweepIsDispatchOrderInvariant(t *testing.T) {
	t.Parallel()
	var ref *ReplicationSweep
	for _, par := range []int{1, 2, 4} {
		s := cacheScale(9103)
		s.Parallelism = par
		sw, err := sweepReplicationFresh(s, Financial)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = sw
			continue
		}
		assertSweepEqual(t, ref, sw)
	}
}

// TestFigure11ParallelMatchesSerial checks that the parallel (alpha, beta)
// grid renders the same table as a serial run.
func TestFigure11ParallelMatchesSerial(t *testing.T) {
	t.Parallel()
	var ref string
	for _, par := range []int{1, 3} {
		s := cacheScale(9104)
		s.Parallelism = par
		tbl, err := Figure11(s, Cello)
		if err != nil {
			t.Fatal(err)
		}
		if got := tbl.Render(); ref == "" {
			ref = got
		} else if got != ref {
			t.Fatalf("Parallelism %d renders\n%s\nwant (serial)\n%s", par, got, ref)
		}
	}
}
