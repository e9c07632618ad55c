package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// fromEdges builds the graph with the given weights and edge list.
func fromEdges(weights []float64, edges [][2]int) *Graph {
	deg := make([]int32, len(weights))
	for _, e := range edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	return New(weights, deg, func(yield func(u, v int)) {
		for _, e := range edges {
			yield(e[0], e[1])
		}
	})
}

func pathGraph(weights []float64) *Graph {
	var edges [][2]int
	for v := 0; v+1 < len(weights); v++ {
		edges = append(edges, [2]int{v, v + 1})
	}
	return fromEdges(weights, edges)
}

func TestGraphBasics(t *testing.T) {
	t.Parallel()
	g := fromEdges([]float64{1, 0, 0}, [][2]int{
		{0, 1},
		{1, 0}, // duplicate, reversed
	})
	if g.M() != 1 {
		t.Errorf("M() = %d, want 1 (duplicate edge ignored)", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("HasEdge missing inserted edge")
	}
	if g.HasEdge(0, 2) {
		t.Error("HasEdge reports phantom edge")
	}
	if g.Degree(1) != 1 || g.Degree(2) != 0 {
		t.Errorf("degrees = %d,%d", g.Degree(1), g.Degree(2))
	}
}

func TestGraphSelfLoopPanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Error("self-loop {2,2} did not panic")
		}
	}()
	fromEdges(make([]float64, 3), [][2]int{{2, 2}})
}

func TestGraphNegativeWeightPanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Error("weight -1 did not panic")
		}
	}()
	fromEdges([]float64{-1}, nil)
}

// TestGraphDegreeMismatchPanics: New sizes the neighbor array from deg,
// so degrees that disagree with the visitor's yields must panic rather
// than leave a corrupt adjacency.
func TestGraphDegreeMismatchPanics(t *testing.T) {
	t.Parallel()
	edge := func(yield func(u, v int)) { yield(0, 1) }
	for name, deg := range map[string][]int32{
		"too few":    {1, 0, 0},
		"too many":   {1, 1, 1},
		"misplaced":  {1, 0, 1},
		"wrong size": {1, 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: degrees %v for edge {0,1} did not panic", name, deg)
				}
			}()
			New(make([]float64, 3), deg, edge)
		}()
	}
}

func TestIsIndependentSet(t *testing.T) {
	t.Parallel()
	g := pathGraph([]float64{1, 1, 1})
	tests := []struct {
		name string
		set  []int
		want bool
	}{
		{"empty", nil, true},
		{"endpoints", []int{0, 2}, true},
		{"adjacent", []int{0, 1}, false},
		{"duplicate vertex", []int{0, 0}, false},
		{"out of range", []int{7}, false},
	}
	for _, tc := range tests {
		if got := g.IsIndependentSet(tc.set); got != tc.want {
			t.Errorf("%s: IsIndependentSet(%v) = %v, want %v", tc.name, tc.set, got, tc.want)
		}
	}
}

func TestExactMWISPath(t *testing.T) {
	t.Parallel()
	// Path 1-10-1-10-1: optimum picks the two 10s (weight 20).
	g := pathGraph([]float64{1, 10, 1, 10, 1})
	is, w := ExactMWIS(g)
	if w != 20 {
		t.Errorf("ExactMWIS weight = %v, want 20", w)
	}
	if !g.IsIndependentSet(is) {
		t.Errorf("ExactMWIS returned dependent set %v", is)
	}
}

func TestExactMWISEmptyAndEdgeless(t *testing.T) {
	t.Parallel()
	is, w := ExactMWIS(fromEdges(nil, nil))
	if len(is) != 0 || w != 0 {
		t.Errorf("empty graph: is=%v w=%v", is, w)
	}
	g := fromEdges([]float64{1, 2, 3}, nil)
	is, w = ExactMWIS(g)
	if w != 6 || len(is) != 3 {
		t.Errorf("edgeless graph: is=%v w=%v, want all vertices weight 6", is, w)
	}
}

func TestGWMINIsIndependentAndReasonable(t *testing.T) {
	t.Parallel()
	g := pathGraph([]float64{1, 10, 1, 10, 1})
	is, w := GWMIN(g)
	if !g.IsIndependentSet(is) {
		t.Fatalf("GWMIN returned dependent set %v", is)
	}
	if w != 20 {
		t.Errorf("GWMIN weight = %v, want 20 on this easy path", w)
	}
	if got := g.SetWeightSum(is); got != w {
		t.Errorf("reported weight %v != recomputed %v", w, got)
	}
}

func TestGWMINStarGraph(t *testing.T) {
	t.Parallel()
	// Star: center weight 2, five leaves weight 1 each. Optimal = leaves (5);
	// GWMIN's degree penalty (2/6 < 1/2) steers it away from the center.
	g := fromEdges([]float64{2, 1, 1, 1, 1, 1}, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}})
	_, w := GWMIN(g)
	if w != 5 {
		t.Errorf("GWMIN on star = %v, want 5 (leaves beat center via degree penalty)", w)
	}
}

func randomGraph(rng *rand.Rand, n int, p float64) *Graph {
	weights := make([]float64, n)
	for v := range weights {
		weights[v] = rng.Float64() * 10
	}
	var edges [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	return fromEdges(weights, edges)
}

// Properties on random graphs: all algorithms return independent sets;
// exact >= greedy; GWMIN respects its published lower bound
// Sum_v w(v)/(deg(v)+1).
func TestMWISProperty(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(14)
		g := randomGraph(rng, n, 0.4)
		exactIS, exactW := ExactMWIS(g)
		if !g.IsIndependentSet(exactIS) {
			return false
		}
		is, gw := GWMIN(g)
		if !g.IsIndependentSet(is) || gw > exactW+1e-9 || math.Abs(g.SetWeightSum(is)-gw) > 1e-9 {
			return false
		}
		bound := 0.0
		for v := 0; v < n; v++ {
			bound += g.Weight(v) / float64(g.Degree(v)+1)
		}
		return gw >= bound-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// randomSparseGraph draws n weights and then 5n random vertex pairs,
// keeping those that are not self-loops.
func randomSparseGraph(rng *rand.Rand, n int) *Graph {
	weights := make([]float64, n)
	for v := range weights {
		weights[v] = rng.Float64()
	}
	var edges [][2]int
	for i := 0; i < 5*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			edges = append(edges, [2]int{u, v})
		}
	}
	return fromEdges(weights, edges)
}

func TestGWMINLargeSparseGraphTerminates(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	n := 20000
	g := randomSparseGraph(rng, n)
	is, w := GWMIN(g)
	if !g.IsIndependentSet(is) {
		t.Fatal("GWMIN returned dependent set on large graph")
	}
	if w <= 0 || len(is) == 0 {
		t.Errorf("GWMIN degenerate result: |IS|=%d w=%v", len(is), w)
	}
}

func BenchmarkGWMINSparse(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	n := 5000
	g := randomSparseGraph(rng, n)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		GWMIN(g)
	}
}

func BenchmarkGreedyCover(b *testing.B) {
	in := randomCoverInstance(rand.New(rand.NewSource(3)), 200, 100)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := GreedyCover(in); err != nil {
			b.Fatal(err)
		}
	}
}
