package graph

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// ConnectedComponents returns the vertex sets of g's connected components,
// each sorted ascending, ordered by their smallest vertex. Offline
// scheduling graphs decompose naturally: requests further apart than the
// replacement window never share a vertex, so bursts form independent
// components.
func ConnectedComponents(g *Graph) [][]int {
	n := g.N()
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var out [][]int
	stack := make([]int, 0, 64)
	for v := 0; v < n; v++ {
		if comp[v] >= 0 {
			continue
		}
		id := len(out)
		comp[v] = id
		stack = append(stack[:0], v)
		members := []int{v}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.Neighbors(u) {
				if comp[w] < 0 {
					comp[w] = id
					stack = append(stack, int(w))
					members = append(members, int(w))
				}
			}
		}
		sort.Ints(members)
		out = append(out, members)
	}
	return out
}

// subgraph builds the induced subgraph on the (sorted) vertex set and a
// mapping from subgraph vertices back to g's vertices. Because both the
// vertex set and the parent adjacency lists are sorted, the subgraph's CSR
// is emitted directly in one pass — remapped neighbor ids come out already
// sorted, so no edge buffer, sort, or dedup is needed. Membership tests are
// binary searches on the sorted vertex set, so no per-component index map
// is allocated.
func subgraph(g *Graph, vs []int) (*Graph, []int) {
	total := 0
	for _, v := range vs {
		total += g.Degree(v)
	}
	weights := make([]float64, len(vs))
	off := make([]int32, len(vs)+1)
	nbr := make([]int32, 0, total)
	for i, v := range vs {
		weights[i] = g.weights[v]
		for _, u := range g.Neighbors(v) {
			if j, ok := slices.BinarySearch(vs, int(u)); ok {
				nbr = append(nbr, int32(j))
			}
		}
		off[i+1] = int32(len(nbr))
	}
	return &Graph{weights: weights, off: off, nbr: nbr}, vs
}

// solveComponents decomposes g into connected components, solves each with
// solve, and concatenates the results in component order (components are
// ordered by smallest vertex), remapped to g's vertex ids. With workers > 1
// components are solved concurrently over a bounded pool; because every
// component is an isolated subproblem and results are merged by component
// index, the output is bit-identical for any worker count.
func solveComponents(g *Graph, workers int, solve func(*Graph) ([]int, float64)) ([]int, float64) {
	comps := ConnectedComponents(g)
	type res struct {
		picked []int
		w      float64
	}
	results := make([]res, len(comps))
	run := func(ci int) {
		sub, back := subgraph(g, comps[ci])
		picked, w := solve(sub)
		mapped := make([]int, len(picked))
		for k, v := range picked {
			mapped[k] = back[v]
		}
		results[ci] = res{picked: mapped, w: w}
	}
	if workers > len(comps) {
		workers = len(comps)
	}
	if workers <= 1 {
		for ci := range comps {
			run(ci)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					ci := int(next.Add(1)) - 1
					if ci >= len(comps) {
						return
					}
					run(ci)
				}
			}()
		}
		wg.Wait()
	}
	var is []int
	total := 0.0
	for _, r := range results {
		is = append(is, r.picked...)
		total += r.w
	}
	return is, total
}

// ParallelGWMIN runs the GWMIN greedy per connected component over a pool
// of workers goroutines (1 = plain GWMIN on the whole graph). The greedy's
// choices in one component never affect ratios in another, so the selected
// set is identical to GWMIN's for every worker count; only the order of the
// returned vertices differs (per-component instead of global ratio order).
func ParallelGWMIN(g *Graph, workers int) ([]int, float64) {
	if workers <= 1 {
		return GWMIN(g)
	}
	return solveComponents(g, workers, GWMIN)
}
