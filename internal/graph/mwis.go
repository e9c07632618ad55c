package graph

import (
	"fmt"
	"math"
	"slices"
)

// Graph is an undirected vertex-weighted graph for the maximum weighted
// independent set problem. Vertices are 0..N-1; parallel edges are
// deduplicated and self-loops are rejected.
//
// The adjacency is CSR (compressed sparse row): one offsets array and one
// shared neighbor array, with each vertex's neighbors sorted ascending. A
// Graph is immutable once New returns, so concurrent reads are safe.
type Graph struct {
	weights []float64
	off     []int32
	nbr     []int32
}

// New builds the graph with one vertex per weight and the edges that edges
// yields, taking ownership of weights. deg[v] must count the edges edges
// yields at v, and New panics if it does not. Weights must be non-negative
// and not NaN, and no edge may be a self-loop (a vertex cannot conflict
// with itself in the reduction); New panics otherwise. Edges may come in
// either orientation and more than once; duplicates are dropped.
//
// The degrees size the neighbor array exactly, and edges is called once to
// scatter into it, so no edge list is ever held: building costs the CSR
// arrays and nothing more. Each vertex's bucket is then sorted and
// deduplicated in place; on the window-bounded scheduling graphs adjacency
// lists are short, so the per-bucket sorts are cheap.
func New(weights []float64, deg []int32, edges func(yield func(u, v int))) *Graph {
	for v, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic(fmt.Sprintf("graph: invalid MWIS weight %v for vertex %d", w, v))
		}
	}
	n := len(weights)
	if len(deg) != n {
		panic(fmt.Sprintf("graph: %d degrees for %d vertices", len(deg), n))
	}
	off := make([]int32, n+1)
	for v, d := range deg {
		off[v+1] = off[v] + d
	}
	nbr := make([]int32, off[n])
	cursor := make([]int32, n)
	copy(cursor, off[:n])
	edges(func(u, v int) {
		if u == v {
			panic(fmt.Sprintf("graph: self-loop on vertex %d", u))
		}
		nbr[cursor[u]] = int32(v)
		cursor[u]++
		nbr[cursor[v]] = int32(u)
		cursor[v]++
	})
	for v, c := range cursor {
		if c != off[v+1] {
			panic(fmt.Sprintf("graph: %d edges yielded at vertex %d, degree says %d", c-off[v], v, deg[v]))
		}
	}
	// Sort and deduplicate each bucket, compacting nbr in place. The write
	// cursor w never passes the read window, so overwrites only touch
	// already-consumed entries.
	var w int32
	start := int32(0)
	var scratch []int32
	for v := 0; v < n; v++ {
		end := off[v+1]
		scratch = sortBucket(nbr[start:end], scratch)
		seg := nbr[start:end]
		off[v] = w
		last := int32(-1)
		for _, x := range seg {
			if x != last {
				nbr[w] = x
				w++
				last = x
			}
		}
		start = end
	}
	off[n] = w
	return &Graph{weights: weights, off: off, nbr: nbr[:w]}
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.weights) }

// M returns the number of distinct edges.
func (g *Graph) M() int { return len(g.nbr) / 2 }

// Weight returns vertex v's weight.
func (g *Graph) Weight(v int) float64 { return g.weights[v] }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int) int { return int(g.off[v+1] - g.off[v]) }

// Neighbors returns v's adjacency list, sorted ascending. The caller must
// not modify it.
func (g *Graph) Neighbors(v int) []int32 { return g.nbr[g.off[v]:g.off[v+1]] }

// sortBucket sorts one adjacency bucket, returning the (possibly grown)
// scratch buffer for reuse. Buckets filled from an ordered edge stream —
// the offline reduction emits each request range's pairs in ascending
// order, giving every vertex at most two sorted runs — are recognized in
// one scan and fixed with a linear two-run merge; arbitrary insertion
// orders fall back to a comparison sort.
func sortBucket(a []int32, scratch []int32) []int32 {
	k := -1
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			k = i
			break
		}
	}
	if k < 0 {
		return scratch // already sorted
	}
	twoRuns := true
	for i := k + 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			twoRuns = false
			break
		}
	}
	if !twoRuns {
		slices.Sort(a)
		return scratch
	}
	// Merge the runs a[:k] and a[k:]; only the first run needs staging.
	scratch = append(scratch[:0], a[:k]...)
	i, j, w := 0, k, 0
	for i < len(scratch) && j < len(a) {
		if scratch[i] <= a[j] {
			a[w] = scratch[i]
			i++
		} else {
			a[w] = a[j]
			j++
		}
		w++
	}
	for i < len(scratch) {
		a[w] = scratch[i]
		i++
		w++
	}
	return scratch
}

// HasEdge reports whether {u,v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	adj := g.nbr[g.off[u]:g.off[u+1]]
	_, ok := slices.BinarySearch(adj, int32(v))
	return ok
}

// IsIndependentSet reports whether the vertex set contains no edge.
func (g *Graph) IsIndependentSet(vs []int) bool {
	in := make(map[int]struct{}, len(vs))
	for _, v := range vs {
		if v < 0 || v >= g.N() {
			return false
		}
		if _, dup := in[v]; dup {
			return false
		}
		in[v] = struct{}{}
	}
	for _, v := range vs {
		for _, u := range g.Neighbors(v) {
			if _, ok := in[int(u)]; ok {
				return false
			}
		}
	}
	return true
}

// SetWeightSum returns the total weight of the vertex set.
func (g *Graph) SetWeightSum(vs []int) float64 {
	total := 0.0
	for _, v := range vs {
		total += g.weights[v]
	}
	return total
}

// ratioHeap is GWMINResidual's re-key heap: a binary heap of the vertices
// whose entries were keyed again after going stale, ordered by before on
// their current keys. Hand-rolled rather than container/heap to avoid
// interface dispatch on the greedy's hottest loop.
type ratioHeap struct {
	keys []uint64 // by vertex: the key of its one live entry
	vs   []int32
}

// before reports whether vertex a precedes vertex b in selection order:
// (ratio desc, v asc), that is (key asc, v asc). This is a strict total
// order, so the order entries leave the front and the heap in is
// independent of how either holds them.
func (h *ratioHeap) before(a, b int32) bool {
	ka, kb := h.keys[a], h.keys[b]
	return ka < kb || ka == kb && a < b
}

func (h *ratioHeap) less(i, j int) bool { return h.before(h.vs[i], h.vs[j]) }

func (h *ratioHeap) down(i int) {
	vs := h.vs
	for {
		l := 2*i + 1
		if l >= len(vs) {
			return
		}
		m := l
		if r := l + 1; r < len(vs) && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			return
		}
		vs[i], vs[m] = vs[m], vs[i]
		i = m
	}
}

func (h *ratioHeap) up(i int) {
	vs := h.vs
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			return
		}
		vs[i], vs[p] = vs[p], vs[i]
		i = p
	}
}

func (h *ratioHeap) pop() int32 {
	v := h.vs[0]
	n := len(h.vs) - 1
	h.vs[0] = h.vs[n]
	h.vs = h.vs[:n]
	h.down(0)
	return v
}

func (h *ratioHeap) push(v int32) {
	h.vs = append(h.vs, v)
	h.up(len(h.vs) - 1)
}

// GWMIN is the greedy of Sakai, Togasaki and Yamazaki [22] used by the
// paper's offline scheduler: repeatedly select the vertex maximizing
// W(u)/(deg(u)+1) in the remaining graph. It guarantees an independent set
// of weight at least Sum_v W(v)/(deg(v)+1).
//
// Residual degrees need no bookkeeping of their own: a vertex's counter
// increments exactly once per alive neighbor lost, so the residual degree
// is the initial degree minus the counter. Keying a vertex again is
// therefore O(1).
func GWMIN(g *Graph) ([]int, float64) {
	n := g.N()
	alive := make([]bool, n)
	for v := range alive {
		alive[v] = true
	}
	lost := make([]int32, n)
	is := GWMINResidual(g.weights, alive,
		func(v int) int { return g.Degree(v) - int(lost[v]) },
		func(v int) { g.deleteClosed(v, alive, lost) })
	return is, g.SetWeightSum(is)
}

// deleteClosed deletes v and its alive neighbors, counting in lost each
// neighbor an alive vertex loses.
func (g *Graph) deleteClosed(v int, alive []bool, lost []int32) {
	del := func(v int) {
		alive[v] = false
		for _, u := range g.Neighbors(v) {
			if alive[u] {
				lost[u]++
			}
		}
	}
	del(v)
	for _, u := range g.Neighbors(v) {
		if alive[u] {
			del(int(u))
		}
	}
}

// GWMINResidual runs GWMIN on a graph known only through its residual
// degrees, for callers that can count a vertex's alive neighbors without
// an adjacency list. weights has one entry per vertex; alive starts all
// true. degree(v) returns the number of alive neighbors of the alive
// vertex v, and take(v) deletes v and its alive neighbors, clearing their
// alive flags. It returns the selected vertices in selection order, which
// is GWMIN's on the same graph: the ratios come from the same integer
// degrees fed to the same division. A ratio never falls as vertices are
// deleted, which the selection loop relies on.
//
// Every vertex is keyed once and the keys are sorted into a front; a heap
// holds only the vertices keyed again after their entries went stale.
// Each step takes the first of the front's head and the heap's top under
// before. An entry whose ratio has grown since it was keyed is stale: the
// vertex is keyed again into the heap, so the first fresh entry is the
// true maximum. Each vertex has at most one entry between the two, so the
// entries leave in the order one lazy max-heap over all of them would pop
// them, and every selection matches it. A deleted vertex never revives,
// so the front's dead entries, most of it, are skipped one array step
// each.
//
// Staleness is a changed ratio, not a changed neighborhood: an entry whose
// neighborhood changed but whose ratio did not would be keyed again with
// the same key, still first, and selected on the next step all the same.
func GWMINResidual(weights []float64, alive []bool, degree func(v int) int, take func(v int)) []int {
	key := func(v int) uint64 { return descKey(weights[v] / float64(degree(v)+1)) }
	keys := make([]uint64, len(weights))
	for v := range keys {
		keys[v] = key(v)
	}
	front := sortByKey(keys)
	h := ratioHeap{keys: keys}
	var is []int
	for i := 0; ; {
		for i < len(front) && !alive[front[i]] {
			i++
		}
		var v int32
		switch {
		case i < len(front) && (len(h.vs) == 0 || h.before(front[i], h.vs[0])):
			v = front[i]
			i++
		case len(h.vs) > 0:
			if v = h.pop(); !alive[v] {
				continue
			}
		default:
			return is
		}
		if k := key(int(v)); k != keys[v] {
			keys[v] = k
			h.push(v)
			continue
		}
		is = append(is, int(v))
		take(int(v))
	}
}

// ExactMWIS solves maximum weighted independent set exactly by branch and
// bound, branching on the maximum-degree vertex with a residual-weight
// bound. Exponential in the worst case; intended for instances with up to a
// few dozen vertices (tests and optimality-gap measurements).
func ExactMWIS(g *Graph) ([]int, float64) {
	n := g.N()
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	var best []int
	bestW := math.Inf(-1)
	var cur []int

	var rec func(curW, residual float64)
	rec = func(curW, residual float64) {
		if curW+residual <= bestW {
			return
		}
		// Pick the alive vertex with maximum degree; take isolated
		// vertices greedily (always optimal).
		pick, pickDeg := -1, -1
		for v := 0; v < n; v++ {
			if !alive[v] {
				continue
			}
			deg := 0
			for _, u := range g.Neighbors(v) {
				if alive[u] {
					deg++
				}
			}
			if deg == 0 {
				// Isolated: include unconditionally.
				alive[v] = false
				cur = append(cur, v)
				rec(curW+g.weights[v], residual-g.weights[v])
				cur = cur[:len(cur)-1]
				alive[v] = true
				return
			}
			if deg > pickDeg {
				pick, pickDeg = v, deg
			}
		}
		if pick < 0 {
			if curW > bestW {
				bestW = curW
				best = append(best[:0], cur...)
			}
			return
		}
		// Branch 1: include pick, removing its closed neighborhood.
		removed := []int{pick}
		removedW := g.weights[pick]
		alive[pick] = false
		for _, u := range g.Neighbors(pick) {
			if alive[u] {
				alive[u] = false
				removed = append(removed, int(u))
				removedW += g.weights[u]
			}
		}
		cur = append(cur, pick)
		rec(curW+g.weights[pick], residual-removedW)
		cur = cur[:len(cur)-1]
		for _, v := range removed {
			alive[v] = true
		}
		// Branch 2: exclude pick.
		alive[pick] = false
		rec(curW, residual-g.weights[pick])
		alive[pick] = true
	}

	residual := 0.0
	for v := 0; v < n; v++ {
		residual += g.weights[v]
	}
	rec(0, residual)
	if best == nil {
		return []int{}, 0
	}
	return best, bestW
}
