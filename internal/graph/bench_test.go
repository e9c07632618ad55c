package graph

import (
	"math/rand"
	"testing"
)

// benchGraphEdges generates a reproducible bursty conflict graph: clusters
// of densely connected vertices (mimicking the offline reduction's
// same-request cliques) plus sparse cross-links.
func benchGraphEdges(n int, seed int64) [][2]int {
	rng := rand.New(rand.NewSource(seed))
	var edges [][2]int
	const cluster = 16
	for base := 0; base+cluster <= n; base += cluster {
		for i := 0; i < cluster; i++ {
			for j := i + 1; j < cluster; j++ {
				if rng.Intn(3) > 0 {
					edges = append(edges, [2]int{base + i, base + j})
				}
			}
		}
	}
	for k := 0; k < n/2; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			edges = append(edges, [2]int{u, v})
		}
	}
	return edges
}

func buildBenchGraph(n int, edges [][2]int, rng *rand.Rand) *Graph {
	weights := make([]float64, n)
	for v := range weights {
		weights[v] = rng.Float64() * 100
	}
	return fromEdges(weights, edges)
}

// BenchmarkGraphNew measures the degree count, the scatter and the
// per-bucket sort of New (the construction path of every offline
// reduction graph).
func BenchmarkGraphNew(b *testing.B) {
	const n = 8192
	edges := benchGraphEdges(n, 11)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(13))
		buildBenchGraph(n, edges, rng)
	}
}

func BenchmarkGWMIN(b *testing.B) {
	const n = 8192
	g := buildBenchGraph(n, benchGraphEdges(n, 11), rand.New(rand.NewSource(13)))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		GWMIN(g)
	}
}
