package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// heapGreedyOracle is the selection loop GWMINResidual's front and re-key
// heap replaced, kept as their reference: every vertex's entry goes into
// one lazy binary max-heap ordered by (ratio desc, v asc) on the float
// ratios themselves, a dead pop is dropped, and a stale pop is re-keyed
// and pushed back. GWMINResidual must select what it selects, in the same
// order.
func heapGreedyOracle(n int, alive []bool, key func(v int) (float64, int32), take func(v int)) []int {
	h := make(oracleHeap, n)
	for v := range h {
		r, s := key(v)
		h[v] = oracleItem{ratio: r, v: int32(v), stamp: s}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	var is []int
	for len(h) > 0 {
		it := h.pop()
		v := int(it.v)
		if !alive[v] {
			continue
		}
		if r, s := key(v); s != it.stamp {
			h.push(oracleItem{ratio: r, v: it.v, stamp: s})
			continue
		}
		is = append(is, v)
		take(v)
	}
	return is
}

// oracleItem is a heapGreedyOracle entry, keyed by the ratio itself.
type oracleItem struct {
	ratio float64
	v     int32
	stamp int32
}

// oracleHeap is a binary max-heap ordered by (ratio desc, v asc).
type oracleHeap []oracleItem

func (h oracleHeap) less(i, j int) bool {
	if h[i].ratio != h[j].ratio {
		return h[i].ratio > h[j].ratio
	}
	return h[i].v < h[j].v
}

func (h oracleHeap) down(i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

func (h *oracleHeap) pop() oracleItem {
	old := *h
	it := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	(*h).down(0)
	return it
}

func (h *oracleHeap) push(it oracleItem) {
	*h = append(*h, it)
	for i := len(*h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.less(i, p) {
			return
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

// oracleGreedy runs heapGreedyOracle with GWMIN's keys over fresh alive
// and lost arrays: a key is the ratio and a stamp that changes whenever
// the ratio may have, here the residual degree.
func oracleGreedy(g *Graph) ([]int, float64) {
	n := g.N()
	alive := make([]bool, n)
	for v := range alive {
		alive[v] = true
	}
	lost := make([]int32, n)
	key := func(v int) (float64, int32) {
		d := g.Degree(v) - int(lost[v])
		return g.weights[v] / float64(d+1), int32(d)
	}
	is := heapGreedyOracle(n, alive, key, func(v int) { g.deleteClosed(v, alive, lost) })
	return is, g.SetWeightSum(is)
}

// tieGraph is a seeded random graph built for ratio ties: integer weights
// in [0, wmax], -0 among the zeros, and about a tenth of the vertices
// isolated, so zero-weight isolated vertices keep their +0 and -0 ratios,
// one value with two bit patterns, until they are selected. Edges join
// random pairs, avg per vertex on average.
func tieGraph(rng *rand.Rand, n, wmax, avg int) *Graph {
	weights := make([]float64, n)
	for v := range weights {
		weights[v] = float64(rng.Intn(wmax + 1))
		if weights[v] == 0 && rng.Intn(2) == 0 {
			weights[v] = math.Copysign(0, -1)
		}
	}
	var edges [][2]int
	for k := 0; n > 1 && k < n*avg/2; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && u%10 != 0 && v%10 != 0 {
			edges = append(edges, [2]int{u, v})
		}
	}
	return fromEdges(weights, edges)
}

// checkMatchesOracle fails unless GWMIN and ParallelGWMIN select on g
// exactly what the heap oracle selects, order included.
func checkMatchesOracle(t *testing.T, g *Graph) {
	t.Helper()
	for _, c := range []struct {
		name      string
		got, want func(*Graph) ([]int, float64)
	}{
		{"GWMIN", GWMIN, oracleGreedy},
		{"ParallelGWMIN", func(g *Graph) ([]int, float64) { return ParallelGWMIN(g, 3) },
			func(g *Graph) ([]int, float64) { return solveComponents(g, 1, oracleGreedy) }},
	} {
		got, gw := c.got(g)
		want, ww := c.want(g)
		if !slices.Equal(got, want) {
			t.Fatalf("%s on %d vertices, %d edges: selected %v, heap oracle %v", c.name, g.N(), g.M(), got, want)
		}
		if gw != ww {
			t.Fatalf("%s: weight %v, heap oracle %v", c.name, gw, ww)
		}
	}
}

// TestSelectGreedyMatchesHeapOracle checks the sorted front and re-key
// heap against the lazy heap they replaced, on graphs either side of the
// radix sort's size cut-off, dense enough that most entries go stale and
// weighted so that most ratios tie.
func TestSelectGreedyMatchesHeapOracle(t *testing.T) {
	t.Parallel()
	for _, n := range []int{0, 1, 2, 17, 255, 256, 257, 1000, 4000} {
		for _, wmax := range []int{0, 1, 3, 40} {
			for _, avg := range []int{0, 2, 6} {
				t.Run(fmt.Sprintf("n=%d/wmax=%d/avg=%d", n, wmax, avg), func(t *testing.T) {
					t.Parallel()
					rng := rand.New(rand.NewSource(int64(n*1000 + wmax*10 + avg)))
					checkMatchesOracle(t, tieGraph(rng, n, wmax, avg))
				})
			}
		}
	}
}

// FuzzSelectGreedy fuzzes tie-heavy random graphs, up to 2,000 vertices so
// both sorts run, against heapGreedyOracle.
func FuzzSelectGreedy(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(3), uint8(4))
	f.Add(int64(2), uint16(40), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, wmax, avg uint8) {
		rng := rand.New(rand.NewSource(seed))
		checkMatchesOracle(t, tieGraph(rng, int(n%2000), int(wmax%64), int(avg%12)))
	})
}
