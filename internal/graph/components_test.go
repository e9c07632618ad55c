package graph

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestConnectedComponents(t *testing.T) {
	t.Parallel()
	// Two triangles and an isolated vertex.
	g := fromEdges([]float64{1, 1, 1, 1, 1, 1, 1}, [][2]int{
		{0, 1}, {1, 2}, {0, 2},
		{3, 4}, {4, 5}, {3, 5},
	})
	comps := ConnectedComponents(g)
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3", len(comps))
	}
	want := [][]int{{0, 1, 2}, {3, 4, 5}, {6}}
	for i := range want {
		if len(comps[i]) != len(want[i]) {
			t.Fatalf("component %d = %v, want %v", i, comps[i], want[i])
		}
		for j := range want[i] {
			if comps[i][j] != want[i][j] {
				t.Fatalf("component %d = %v, want %v", i, comps[i], want[i])
			}
		}
	}
}

func TestConnectedComponentsEmptyGraph(t *testing.T) {
	t.Parallel()
	if comps := ConnectedComponents(fromEdges(nil, nil)); len(comps) != 0 {
		t.Errorf("components of empty graph = %v", comps)
	}
}

// Property: components partition the vertex set.
func TestComponentsPartitionProperty(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 2+rng.Intn(30), 0.1)
		seen := map[int]bool{}
		total := 0
		for _, comp := range ConnectedComponents(g) {
			for _, v := range comp {
				if seen[v] {
					return false
				}
				seen[v] = true
				total++
			}
		}
		return total == g.N()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSubgraphInducesEdges(t *testing.T) {
	t.Parallel()
	g := pathGraph([]float64{1, 2, 3, 4})
	sub, back := subgraph(g, []int{1, 2, 3})
	if sub.N() != 3 || sub.M() != 2 {
		t.Fatalf("subgraph n=%d m=%d", sub.N(), sub.M())
	}
	if sub.Weight(0) != 2 || back[0] != 1 {
		t.Errorf("vertex mapping wrong")
	}
	sorted := append([]int(nil), back...)
	sort.Ints(sorted)
	for i := range sorted {
		if sorted[i] != back[i] {
			t.Error("back-mapping not sorted")
		}
	}
}
