package offline

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/power"
)

func TestBuildPaperExampleNodes(t *testing.T) {
	t.Parallel()
	// Figure 4 Step 1: the instance contains, among others, X(1,2,1),
	// X(2,3,1), X(2,3,2) and X(4,6,4) (1-indexed in the paper).
	in, err := Build(offlineRequests(), paperExample(), power.ToyConfig(), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	find := func(i, j core.RequestID, d core.DiskID) *Node {
		for v := range in.Nodes {
			n := &in.Nodes[v]
			if n.I == i && n.J == j && n.Disk == d {
				return n
			}
		}
		return nil
	}
	tests := []struct {
		i, j   core.RequestID
		d      core.DiskID
		weight float64
	}{
		{0, 1, 0, 4}, // X(1,2,1): gap 1 -> saving 4
		{1, 2, 0, 3}, // X(2,3,1): gap 2 -> saving 3
		{1, 2, 1, 3}, // X(2,3,2)
		{4, 5, 3, 4}, // X(5,6,4): gap 1 -> saving 4
	}
	for _, tc := range tests {
		n := find(tc.i, tc.j, tc.d)
		if n == nil {
			t.Errorf("node X(%d,%d,%d) missing", tc.i+1, tc.j+1, tc.d+1)
			continue
		}
		if math.Abs(n.Weight-tc.weight) > 1e-9 {
			t.Errorf("X(%d,%d,%d) weight = %v, want %v", tc.i+1, tc.j+1, tc.d+1, n.Weight, tc.weight)
		}
	}
	// r4 (index 3, t=5s) has no partner within the 5 s window on its disks:
	// d3's other request r6 arrives at 13 s, d4's r5 at 12 s.
	for _, n := range in.Nodes {
		if n.I == 3 {
			t.Errorf("unexpected node X(4,%d,%d)", n.J+1, n.Disk+1)
		}
	}
}

func TestBuildEdgesEncodeConstraints(t *testing.T) {
	t.Parallel()
	in, err := Build(offlineRequests(), paperExample(), power.ToyConfig(), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	idx := func(i, j core.RequestID, d core.DiskID) int {
		for v, n := range in.Nodes {
			if n.I == i && n.J == j && n.Disk == d {
				return v
			}
		}
		t.Fatalf("node X(%d,%d,%d) missing", i+1, j+1, d+1)
		return -1
	}
	// Energy constraint: X(2,3,1) vs X(2,3,2) share i=2.
	if !in.Graph.HasEdge(idx(1, 2, 0), idx(1, 2, 1)) {
		t.Error("missing energy-constraint edge between X(2,3,1) and X(2,3,2)")
	}
	// Schedule constraint (Figure 4 Step 2): X(1,2,1) and X(2,3,2) share
	// request 2 on different disks.
	if !in.Graph.HasEdge(idx(0, 1, 0), idx(1, 2, 1)) {
		t.Error("missing schedule-constraint edge between X(1,2,1) and X(2,3,2)")
	}
	// Same disk, shared request, distinct predecessors: compatible.
	if in.Graph.HasEdge(idx(0, 1, 0), idx(1, 2, 0)) {
		t.Error("spurious edge between chainable X(1,2,1) and X(2,3,1)")
	}
}

func TestSolveExactReproducesScheduleCEnergy(t *testing.T) {
	t.Parallel()
	// The optimal offline schedule for Figure 3 costs 19 energy units.
	reqs := offlineRequests()
	sched, st, err := SolveExact(reqs, paperExample(), power.ToyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.Energy-19) > 1e-9 {
		t.Errorf("optimal energy = %v, want 19 (schedule C)", st.Energy)
	}
	if !sched.Valid(reqs, paperExample()) {
		t.Error("derived schedule invalid")
	}
	// r1,r2,r3 must share one disk (only d1 holds all their blocks with
	// pairwise savings).
	if sched[0] != 0 || sched[1] != 0 || sched[2] != 0 {
		t.Errorf("r1..r3 on %v, want all on d1", sched[:3])
	}
}

func TestSolveGreedyIsValidAndNearExactOnPaperExample(t *testing.T) {
	t.Parallel()
	reqs := offlineRequests()
	sched, st, err := Solve(reqs, paperExample(), power.ToyConfig(), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sched.Valid(reqs, paperExample()) {
		t.Fatal("greedy schedule invalid")
	}
	if st.Energy < 19-1e-9 {
		t.Errorf("greedy energy %v beats the proven optimum 19", st.Energy)
	}
	if st.Energy > 23+1e-9 {
		t.Errorf("greedy energy %v worse than the naive schedule B", st.Energy)
	}
}

func TestBatchOptimalEqualsMinimumDiskCount(t *testing.T) {
	t.Parallel()
	// Theorem 2 corollary: with concurrent requests and all-standby disks,
	// optimal energy = (minimum covering disks) * (E_up/down + T_B*P_I).
	// Figure 2(b): two disks suffice, so optimal energy = 2*5 = 10.
	reqs := batchRequests()
	_, st, err := SolveExact(reqs, paperExample(), power.ToyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.Energy-10) > 1e-9 {
		t.Errorf("batch optimal energy = %v, want 10", st.Energy)
	}
	if st.DisksUsed != 2 {
		t.Errorf("disks used = %d, want 2", st.DisksUsed)
	}

	// Theorem 2 on random batches: the optimal schedule uses as many disks
	// as a minimum set cover of the requests by the disks, and the greedy
	// pipeline never uses fewer.
	for _, pc := range []struct {
		name string
		cfg  power.Config
	}{{"toy", power.ToyConfig()}, {"default", power.DefaultConfig()}} {
		for seed := int64(0); seed < 400; seed++ {
			reqs, locations, cover := randomBatch(rand.New(rand.NewSource(seed)))
			chosen, _, err := graph.ExactCover(cover, 0)
			if err != nil {
				t.Fatalf("%s seed %d: %v", pc.name, seed, err)
			}
			_, exact, err := SolveExact(reqs, locations, pc.cfg)
			if err != nil {
				t.Fatalf("%s seed %d: %v", pc.name, seed, err)
			}
			_, greedy, err := Solve(reqs, locations, pc.cfg, BuildOptions{})
			if err != nil {
				t.Fatalf("%s seed %d: %v", pc.name, seed, err)
			}
			if exact.DisksUsed != len(chosen) || greedy.DisksUsed < len(chosen) {
				t.Errorf("%s seed %d: exact uses %d disks, greedy %d, minimum cover %d",
					pc.name, seed, exact.DisksUsed, greedy.DisksUsed, len(chosen))
			}
		}
	}
}

// randomBatch builds a concurrent batch: 2-5 disks, 1-6 blocks with random
// replica sets and 1-7 requests, all arriving at 0, with its set cover
// instance (one unit-weight set per disk, one element per request).
func randomBatch(rng *rand.Rand) ([]core.Request, func(core.BlockID) []core.DiskID, graph.CoverInstance) {
	numDisks := 2 + rng.Intn(4)
	locs := make([][]core.DiskID, 1+rng.Intn(6))
	for b := range locs {
		for _, d := range rng.Perm(numDisks)[:1+rng.Intn(numDisks)] {
			locs[b] = append(locs[b], core.DiskID(d))
		}
	}
	reqs := make([]core.Request, 1+rng.Intn(7))
	cover := graph.CoverInstance{NumElements: len(reqs), Sets: make([]graph.Set, numDisks)}
	for i := range cover.Sets {
		cover.Sets[i].Weight = 1
	}
	for i := range reqs {
		reqs[i] = core.Request{ID: core.RequestID(i), Block: core.BlockID(rng.Intn(len(locs)))}
		for _, d := range locs[reqs[i].Block] {
			cover.Sets[d].Elements = append(cover.Sets[d].Elements, i)
		}
	}
	return reqs, func(b core.BlockID) []core.DiskID { return locs[b] }, cover
}

// randomInstance builds a small random scheduling problem.
func randomInstance(rng *rand.Rand) ([]core.Request, func(core.BlockID) []core.DiskID) {
	numDisks := 2 + rng.Intn(3)
	numBlocks := 1 + rng.Intn(5)
	locs := make([][]core.DiskID, numBlocks)
	for b := range locs {
		rf := 1 + rng.Intn(numDisks)
		perm := rng.Perm(numDisks)
		for _, d := range perm[:rf] {
			locs[b] = append(locs[b], core.DiskID(d))
		}
	}
	n := 2 + rng.Intn(5)
	reqs := make([]core.Request, n)
	now := time.Duration(0)
	for i := range reqs {
		now += time.Duration(rng.Int63n(int64(4 * time.Second)))
		reqs[i] = core.Request{
			ID:      core.RequestID(i),
			Block:   core.BlockID(rng.Intn(numBlocks)),
			Arrival: now,
		}
	}
	return reqs, func(b core.BlockID) []core.DiskID { return locs[b] }
}

// bruteForceMin enumerates every feasible schedule and returns the minimum
// analytic energy.
func bruteForceMin(t *testing.T, reqs []core.Request, locations func(core.BlockID) []core.DiskID, cfg power.Config) float64 {
	t.Helper()
	best := math.Inf(1)
	sched := make(core.Schedule, len(reqs))
	var rec func(i int)
	rec = func(i int) {
		if i == len(reqs) {
			st, err := Evaluate(reqs, sched, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if st.Energy < best {
				best = st.Energy
			}
			return
		}
		for _, d := range locations(reqs[i].Block) {
			sched[reqs[i].ID] = d
			rec(i + 1)
		}
	}
	rec(0)
	return best
}

// Theorem 1 property: the exact-MWIS pipeline yields an energy-optimal
// offline schedule (checked against brute force on random small instances,
// for both the toy and the realistic power model — both satisfy footnote
// 4's precondition).
func TestSolveExactIsOptimalProperty(t *testing.T) {
	t.Parallel()
	for _, cfg := range []power.Config{power.ToyConfig(), power.DefaultConfig()} {
		cfg := cfg
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			reqs, locations := randomInstance(rng)
			sched, st, err := SolveExact(reqs, locations, cfg)
			if err != nil {
				return false
			}
			if !sched.Valid(reqs, locations) {
				return false
			}
			want := bruteForceMin(t, reqs, locations, cfg)
			return math.Abs(st.Energy-want) < 1e-6*(1+want)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("config %+v: %v", cfg, err)
		}
	}
}

// Property: the greedy pipeline is always valid and never beats the exact
// optimum.
func TestSolveGreedyProperty(t *testing.T) {
	t.Parallel()
	cfg := power.ToyConfig()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		reqs, locations := randomInstance(rng)
		sched, st, err := Solve(reqs, locations, cfg, BuildOptions{})
		if err != nil || !sched.Valid(reqs, locations) {
			return false
		}
		_, exact, err := SolveExact(reqs, locations, cfg)
		if err != nil {
			return false
		}
		return st.Energy >= exact.Energy-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestBuildOptionsCaps(t *testing.T) {
	t.Parallel()
	reqs := offlineRequests()
	if _, err := Build(reqs, paperExample(), power.ToyConfig(), BuildOptions{MaxNodes: 1}); err == nil {
		t.Error("MaxNodes cap not enforced")
	}
	in, err := Build(reqs, paperExample(), power.ToyConfig(), BuildOptions{MaxSuccessors: 1})
	if err != nil {
		t.Fatal(err)
	}
	// With one successor per (request, disk), each (i, disk) appears in at
	// most one node as predecessor.
	seen := map[[2]int]int{}
	for _, n := range in.Nodes {
		seen[[2]int{int(n.I), int(n.Disk)}]++
	}
	for k, c := range seen {
		if c > 1 {
			t.Errorf("predecessor (r%d,d%d) appears in %d nodes despite MaxSuccessors=1", k[0]+1, k[1]+1, c)
		}
	}
}

func TestBuildErrorsOnUnplacedBlock(t *testing.T) {
	t.Parallel()
	reqs := []core.Request{{ID: 0, Block: 99}}
	if _, err := Build(reqs, paperExample(), power.ToyConfig(), BuildOptions{}); err == nil {
		t.Error("Build accepted a request with no locations")
	}
}

func TestDeriveScheduleRejectsConflictingSelection(t *testing.T) {
	t.Parallel()
	in, err := Build(offlineRequests(), paperExample(), power.ToyConfig(), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Find two nodes sharing a request on different disks; selecting both
	// must be rejected.
	for a := range in.Nodes {
		for b := range in.Nodes {
			na, nb := in.Nodes[a], in.Nodes[b]
			if a != b && na.Disk != nb.Disk &&
				(na.I == nb.I || na.I == nb.J || na.J == nb.I || na.J == nb.J) {
				if _, err := in.DeriveSchedule(offlineRequests(), paperExample(), []int{a, b}); err == nil {
					t.Fatal("DeriveSchedule accepted a conflicting selection")
				}
				return
			}
		}
	}
	t.Fatal("no conflicting node pair found in example")
}

func TestGadgetStructure(t *testing.T) {
	t.Parallel()
	// Theorem 3's construction on a triangle: 3 requests per edge, per-edge
	// groups separated beyond the replacement window, and the reduction's
	// MWIS optimum is exactly one full saving per edge.
	cfg := power.ToyConfig()
	edges := [][2]int{{0, 1}, {1, 2}, {0, 2}}
	reqs, locations, err := Gadget(3, edges, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 9 {
		t.Fatalf("requests = %d, want 9", len(reqs))
	}
	in, err := Build(reqs, locations, cfg, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, w := graph.ExactMWIS(in.Graph)
	want := float64(len(edges)) * cfg.MaxRequestEnergy()
	if math.Abs(w-want) > 1e-9 {
		t.Errorf("gadget MWIS weight = %v, want %v (one saved pair per edge)", w, want)
	}
}

func TestGadgetValidation(t *testing.T) {
	t.Parallel()
	cfg := power.ToyConfig()
	if _, _, err := Gadget(0, nil, cfg); err == nil {
		t.Error("accepted zero vertices")
	}
	if _, _, err := Gadget(2, [][2]int{{0, 5}}, cfg); err == nil {
		t.Error("accepted out-of-range edge")
	}
	if _, _, err := Gadget(2, [][2]int{{1, 1}}, cfg); err == nil {
		t.Error("accepted self-loop")
	}
}
