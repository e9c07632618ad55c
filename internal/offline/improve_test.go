package offline

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/power"
)

func TestImproveNeverWorsensAndMatchesEvaluate(t *testing.T) {
	t.Parallel()
	cfg := power.ToyConfig()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		reqs, locations := randomInstance(rng)
		// Start from the static schedule (original locations).
		start := make(core.Schedule, len(reqs))
		for _, r := range reqs {
			start[r.ID] = locations(r.Block)[0]
		}
		before, err := Evaluate(reqs, start, cfg, locations)
		if err != nil {
			return false
		}
		improved, _, err := Improve(reqs, start, cfg, locations, 10)
		if err != nil || !improved.Valid(reqs, locations) {
			return false
		}
		after, err := Evaluate(reqs, improved, cfg, locations)
		if err != nil {
			return false
		}
		return after.Energy <= before.Energy+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestImproveReachesOptimumOnPaperExample(t *testing.T) {
	t.Parallel()
	// Start one strictly-improving move away from schedule C: r3 sits alone
	// on d2 (energy 22); moving it next to r1,r2 on d1 saves 3 and yields
	// the optimal 19. (Schedule B itself is separated from C by a
	// zero-gain plateau that strict single-move descent cannot cross.)
	reqs := offlineRequests()
	start := core.Schedule{0, 0, 1, 2, 3, 3}
	improved, moves, err := Improve(reqs, start, power.ToyConfig(), paperExample(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if moves == 0 {
		t.Fatal("no moves made from suboptimal schedule B")
	}
	st, err := Evaluate(reqs, improved, power.ToyConfig(), paperExample())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.Energy-19) > 1e-9 {
		t.Errorf("improved energy = %v, want 19", st.Energy)
	}
}

func TestImproveFixedPointIsStable(t *testing.T) {
	t.Parallel()
	reqs := offlineRequests()
	sched, _, err := SolveExact(reqs, paperExample(), power.ToyConfig())
	if err != nil {
		t.Fatal(err)
	}
	improved, moves, err := Improve(reqs, sched, power.ToyConfig(), paperExample(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if moves != 0 {
		t.Errorf("%d moves from an optimal schedule", moves)
	}
	for i := range sched {
		if improved[i] != sched[i] {
			t.Errorf("optimal schedule mutated at %d", i)
		}
	}
}

func TestImproveDeltaConsistency(t *testing.T) {
	t.Parallel()
	// Property: after Improve, recomputing energy from scratch matches a
	// from-scratch evaluation of the returned schedule (the incremental
	// deltas didn't drift).
	cfg := power.DefaultConfig()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		reqs, locations := randomInstance(rng)
		start := make(core.Schedule, len(reqs))
		for _, r := range reqs {
			locs := locations(r.Block)
			start[r.ID] = locs[rng.Intn(len(locs))]
		}
		improved, _, err := Improve(reqs, start, cfg, locations, 5)
		if err != nil {
			return false
		}
		// Re-run Improve on its own output: it must make no further moves
		// in the first pass (local optimality) unless floating-point noise.
		again, moves, err := Improve(reqs, improved, cfg, locations, 1)
		if err != nil {
			return false
		}
		if moves != 0 {
			return false
		}
		_ = again
		return improved.Valid(reqs, locations)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestImproveRejectsShortSchedule(t *testing.T) {
	t.Parallel()
	reqs := offlineRequests()
	if _, _, err := Improve(reqs, core.Schedule{0}, power.ToyConfig(), paperExample(), 1); err == nil {
		t.Error("accepted short schedule")
	}
}

func TestSolveRefinedNotWorseThanSolve(t *testing.T) {
	t.Parallel()
	cfg := power.ToyConfig()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		reqs, locations := randomInstance(rng)
		_, plain, err := Solve(reqs, locations, cfg, BuildOptions{})
		if err != nil {
			return false
		}
		_, refined, err := SolveRefined(reqs, locations, cfg, BuildOptions{}, 5)
		if err != nil {
			return false
		}
		return refined.Energy <= plain.Energy+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// improveFullPass is the reference local search Improve must reproduce:
// every pass evaluates every request. It also returns the number of passes
// it ran.
func improveFullPass(reqs []core.Request, sched core.Schedule, cfg power.Config, locations func(core.BlockID) []core.DiskID, maxPasses int) (core.Schedule, int, int) {
	out := sched.Clone()
	tl := newTimelines(reqs, out, cfg)
	moves, passes := 0, 0
	for passes < maxPasses {
		passes++
		improvedThisPass := false
		for _, r := range reqs {
			cur := out[r.ID]
			best := cur
			bestDelta := 0.0
			removal := tl.removalDelta(cur, r)
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
	return out, moves, passes
}

// improveCase is one random local-search instance: 2-40 disks, replication
// factor 1-5, arrivals on a coarse grid so many requests share a timestamp
// (ties broken by ID on every timeline), requests listed in arrival order
// or shuffled, and a random starting schedule that now and then puts a
// request on a disk outside its replica set.
type improveCase struct {
	reqs      []core.Request
	locations func(core.BlockID) []core.DiskID
	start     core.Schedule
	cfg       power.Config
	passes    int
}

func randomImproveCase(seed int64, maxReqs int) improveCase {
	rng := rand.New(rand.NewSource(seed))
	numDisks := 2 + rng.Intn(39)
	rf := 1 + rng.Intn(min(5, numDisks))
	numBlocks := 1 + rng.Intn(60)
	locs := make([][]core.DiskID, numBlocks)
	for b := range locs {
		for _, d := range rng.Perm(numDisks)[:rf] {
			locs[b] = append(locs[b], core.DiskID(d))
		}
	}
	cfg := power.DefaultConfig()
	if rng.Intn(2) == 0 {
		cfg = power.ToyConfig()
	}
	unit := cfg.Breakeven() / time.Duration(1+rng.Intn(8))
	slots := 1 + rng.Intn(maxReqs)
	n := 1 + rng.Intn(maxReqs)
	reqs := make([]core.Request, n)
	for i := range reqs {
		reqs[i] = core.Request{
			ID:      core.RequestID(i),
			Block:   core.BlockID(rng.Intn(numBlocks)),
			Arrival: time.Duration(rng.Intn(slots)) * unit,
		}
	}
	slices.SortStableFunc(reqs, func(a, b core.Request) int { return int(a.Arrival - b.Arrival) })
	for i := range reqs {
		reqs[i].ID = core.RequestID(i)
	}
	if rng.Intn(4) == 0 {
		rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	}
	start := make(core.Schedule, n)
	for _, r := range reqs {
		if rng.Intn(10) == 0 {
			start[r.ID] = core.DiskID(rng.Intn(numDisks))
		} else {
			start[r.ID] = locs[r.Block][rng.Intn(rf)]
		}
	}
	return improveCase{
		reqs:      reqs,
		locations: func(b core.BlockID) []core.DiskID { return locs[b] },
		start:     start,
		cfg:       cfg,
		passes:    1 + rng.Intn(8),
	}
}

// checkImproveMatchesOracle requires Improve's schedule and move count to
// equal the full-pass search's, and returns the passes the oracle ran.
func checkImproveMatchesOracle(t *testing.T, seed int64, maxReqs int) int {
	t.Helper()
	c := randomImproveCase(seed, maxReqs)
	want, wantMoves, passes := improveFullPass(c.reqs, c.start, c.cfg, c.locations, c.passes)
	got, moves, err := Improve(c.reqs, c.start, c.cfg, c.locations, c.passes)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if moves != wantMoves {
		t.Fatalf("seed %d: Improve made %d moves, full-pass search %d", seed, moves, wantMoves)
	}
	for id := range want {
		if got[id] != want[id] {
			t.Fatalf("seed %d: request %d on disk %d, full-pass search puts it on %d", seed, id, got[id], want[id])
		}
	}
	return passes
}

// TestImproveMatchesFullPassOracle pins the dirty-request bookkeeping:
// skipping the requests no move has touched since an evaluation that made
// no move changes neither the schedule nor the move count. The instances
// must reach the later passes, where only dirty requests are evaluated.
func TestImproveMatchesFullPassOracle(t *testing.T) {
	t.Parallel()
	deep := 0
	for seed := int64(0); seed < 600; seed++ {
		if checkImproveMatchesOracle(t, seed, 300) >= 3 {
			deep++
		}
	}
	if deep < 50 {
		t.Errorf("only %d of 600 instances ran three or more passes", deep)
	}
}

// FuzzImprove checks the same property as TestImproveMatchesFullPassOracle
// on fuzzed instances of up to 2,000 requests.
func FuzzImprove(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42} {
		f.Add(seed, uint16(200))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		checkImproveMatchesOracle(t, seed, 1+int(n)%2000)
	})
}
