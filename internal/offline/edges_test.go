package offline

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/placement"
	"repro/internal/power"
	"repro/internal/workload"
)

// conflictOracle returns the reduction's adjacency by brute force over
// every vertex pair, straight from the paper's Step 2: X(i,j,k) and
// X(i',j',k') conflict when i = i' (energy constraint) or when they share
// a request on different disks (schedule constraint). Each list comes out
// ascending.
func conflictOracle(nodes []Node) (adj [][]int32, edges int) {
	adj = make([][]int32, len(nodes))
	for u, a := range nodes {
		for v := u + 1; v < len(nodes); v++ {
			b := nodes[v]
			shared := a.I == b.I || a.I == b.J || a.J == b.I || a.J == b.J
			if a.I == b.I || shared && a.Disk != b.Disk {
				adj[u] = append(adj[u], int32(v))
				adj[v] = append(adj[v], int32(u))
				edges++
			}
		}
	}
	return adj, edges
}

// checkAgainstOracle fails unless in.Graph holds exactly the oracle's
// edges, every adjacency list strictly ascending.
func checkAgainstOracle(t *testing.T, in *Instance) {
	t.Helper()
	want, edges := conflictOracle(in.Nodes)
	g := in.Graph
	if g.N() != len(in.Nodes) {
		t.Fatalf("N() = %d, want one vertex per node (%d)", g.N(), len(in.Nodes))
	}
	for v := range in.Nodes {
		got := g.Neighbors(v)
		for k := 1; k < len(got); k++ {
			if got[k] <= got[k-1] {
				t.Fatalf("vertex %d: neighbors %v not strictly ascending", v, got)
			}
		}
		if !slices.Equal(got, want[v]) {
			t.Fatalf("vertex %d %+v: neighbors %v, oracle says %v", v, in.Nodes[v], got, want[v])
		}
		if g.Weight(v) != in.Nodes[v].Weight {
			t.Fatalf("vertex %d: weight %v, node says %v", v, g.Weight(v), in.Nodes[v].Weight)
		}
	}
	if g.M() != edges {
		t.Fatalf("M() = %d, oracle counts %d edges", g.M(), edges)
	}
}

// reshape stretches every arrival by stretch, so the stream spans several
// replacement windows, and with tie > 0 rounds it down to a multiple of
// tie, so requests on one disk share arrival times and Build's
// (arrival, id) order decides.
func reshape(reqs []core.Request, stretch int, tie time.Duration) []core.Request {
	out := slices.Clone(reqs)
	for i := range out {
		out[i].Arrival *= time.Duration(stretch)
		if tie > 0 {
			out[i].Arrival -= out[i].Arrival % tie
		}
	}
	return out
}

// TestBuildEdgesMatchOracle checks every edge Build constructs against
// the brute-force oracle, over both trace shapes, arrival ties, every
// replication factor from 1 to 5, the exact and the capped reduction,
// and serial and sharded construction.
func TestBuildEdgesMatchOracle(t *testing.T) {
	t.Parallel()
	pcfg := power.DefaultConfig()
	streams := map[string][]core.Request{
		"cello":     workload.CelloLike(64, 120, 3),
		"financial": workload.FinancialLike(64, 120, 4),
	}
	for name, reqs := range streams {
		for _, tie := range []time.Duration{0, 5 * time.Second} {
			reqs := reshape(reqs, 20, tie)
			for rf := 1; rf <= 5; rf++ {
				plc, err := placement.Generate(placement.GenerateConfig{
					NumDisks: 16, NumBlocks: 120, ReplicationFactor: rf, ZipfExponent: 1, Seed: int64(rf),
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, succ := range []int{0, 4} {
					t.Run(fmt.Sprintf("%s/tie=%v/rf=%d/succ=%d", name, tie, rf, succ), func(t *testing.T) {
						var want *Instance
						for _, workers := range []int{1, 4} {
							in, err := Build(reqs, plc.Locations, pcfg, BuildOptions{MaxSuccessors: succ, Workers: workers})
							if err != nil {
								t.Fatal(err)
							}
							if in.Graph.M() == 0 {
								t.Fatal("no edges: the fixture exercises nothing")
							}
							if want == nil {
								checkAgainstOracle(t, in)
								want = in
								continue
							}
							// Same nodes in the same order, so the oracle's
							// verdict carries over edge for edge.
							if !slices.Equal(in.Nodes, want.Nodes) {
								t.Fatalf("workers=%d: nodes differ from serial construction", workers)
							}
							for v := range in.Nodes {
								if !slices.Equal(in.Graph.Neighbors(v), want.Graph.Neighbors(v)) {
									t.Fatalf("workers=%d: vertex %d neighbors differ from serial construction", workers, v)
								}
							}
						}
					})
				}
			}
		}
	}
}

// sortedNodes returns nodes in the (I, J, Disk) order of one comparison
// sort, the order reduce's counting passes must reproduce.
func sortedNodes(nodes []Node) []Node {
	out := slices.Clone(nodes)
	slices.SortFunc(out, func(na, nb Node) int {
		if na.I != nb.I {
			return int(na.I) - int(nb.I)
		}
		if na.J != nb.J {
			return int(na.J) - int(nb.J)
		}
		return int(na.Disk) - int(nb.Disk)
	})
	return out
}

// TestReduceNodeOrder checks reduce's vertex order against a comparison
// sort by (I, J, Disk), with request IDs shuffled out of arrival order,
// over replication factors 1 to 5 and the exact and the capped reduction.
// It also feeds orderNodes the same nodes shuffled across random shards,
// which must come back in that order, none lost or repeated.
func TestReduceNodeOrder(t *testing.T) {
	t.Parallel()
	pcfg := power.DefaultConfig()
	rng := rand.New(rand.NewSource(5))
	reqs := reshape(workload.CelloLike(160, 120, 3), 20, 0)
	for i, id := range rng.Perm(len(reqs)) {
		reqs[i].ID = core.RequestID(id)
	}
	for rf := 1; rf <= 5; rf++ {
		plc, err := placement.Generate(placement.GenerateConfig{
			NumDisks: 16, NumBlocks: 120, ReplicationFactor: rf, ZipfExponent: 1, Seed: int64(rf),
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, succ := range []int{0, 4} {
			rd, err := reduce(reqs, plc.Locations, pcfg, BuildOptions{MaxSuccessors: succ})
			if err != nil {
				t.Fatal(err)
			}
			if len(rd.nodes) == 0 {
				t.Fatalf("rf=%d succ=%d: no nodes: the fixture exercises nothing", rf, succ)
			}
			want := sortedNodes(rd.nodes)
			if !slices.Equal(rd.nodes, want) {
				t.Fatalf("rf=%d succ=%d: reduce's vertex order is not (I, J, Disk)", rf, succ)
			}
			shuffled := slices.Clone(want)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			var shards [][]Node
			for len(shuffled) > 0 {
				k := min(len(shuffled), 1+rng.Intn(50))
				shards = append(shards, shuffled[:k])
				shuffled = shuffled[k:]
			}
			if got := orderNodes(shards, len(want)); !slices.Equal(got, want) {
				t.Fatalf("rf=%d succ=%d: orderNodes on shuffled shards is not (I, J, Disk)", rf, succ)
			}
		}
	}
}

// FuzzBuildEdges feeds Build tiny fuzzer-chosen request streams and
// replica sets and checks the graph against the brute-force oracle, the
// reduction's residual degrees against the oracle's adjacency, the range
// greedy against graph.GWMIN on the graph, and the vertex order against a
// comparison sort by (I, J, Disk). The input decodes as: one byte of
// options (disk count, successor cap, workers), one replica bitmask per
// block, then (gap, block) byte pairs, one per request. Gaps are in eighths of the replacement window, so
// zero gaps make arrival ties and large ones split the stream.
func FuzzBuildEdges(f *testing.F) {
	const blocks = 4
	pcfg := power.DefaultConfig()
	unit := pcfg.ReplacementWindow() / 8
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1+blocks {
			return
		}
		disks := 1 + int(data[0]%6)
		opts := BuildOptions{MaxSuccessors: int(data[0]>>3) % 5, Workers: 1 + int(data[0]>>6)}
		locs := make([][]core.DiskID, blocks)
		for b := range locs {
			mask := int(data[1+b]) % (1 << disks)
			for d := 0; d < disks; d++ {
				if mask&(1<<d) != 0 {
					locs[b] = append(locs[b], core.DiskID(d))
				}
			}
			if len(locs[b]) == 0 {
				locs[b] = []core.DiskID{core.DiskID(b % disks)}
			}
		}
		var reqs []core.Request
		var at time.Duration
		for p := 1 + blocks; p+1 < len(data) && len(reqs) < 64; p += 2 {
			at += time.Duration(data[p]%16) * unit
			reqs = append(reqs, core.Request{ID: core.RequestID(len(reqs)), Block: core.BlockID(data[p+1] % blocks), Arrival: at})
		}
		locations := func(b core.BlockID) []core.DiskID { return locs[b] }
		in, err := Build(reqs, locations, pcfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstOracle(t, in)
		checkGreedy(t, reqs, locations, pcfg, opts)
		rd, err := reduce(reqs, locations, pcfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(rd.nodes, sortedNodes(rd.nodes)) {
			t.Fatal("reduce's vertex order is not (I, J, Disk)")
		}
		adj, _ := conflictOracle(rd.nodes)
		checkResidual(t, rd, adj)
	})
}

// raceEnabled is set by race_test.go: the race detector instruments
// allocations, so byte counts do not hold under it.
var raceEnabled bool

// buildFixture is a 24-disk, 2,500-block, 6,000-request Cello-like
// stream at replication factor rf, reduced with the successor cap the
// figure sweeps use.
func buildFixture(tb testing.TB, rf int) (reqs []core.Request, locations func(core.BlockID) []core.DiskID, opts BuildOptions) {
	tb.Helper()
	plc, err := placement.Generate(placement.GenerateConfig{
		NumDisks: 24, NumBlocks: 2500, ReplicationFactor: rf, ZipfExponent: 1, Seed: 7,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return workload.CelloLike(6000, 2500, 1), plc.Locations, BuildOptions{MaxSuccessors: 4}
}

// TestBuildAllocatesPerEdge bounds what Build allocates per conflict
// edge: the CSR neighbor array costs 8 bytes per edge, and everything
// else Build holds (nodes, mentions, offsets) is per vertex. An edge
// buffer compiled into CSR afterwards costs about 52 bytes per edge.
func TestBuildAllocatesPerEdge(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	pcfg := power.DefaultConfig()
	for _, rf := range []int{3, 5} {
		reqs, locations, opts := buildFixture(t, rf)
		in, err := Build(reqs, locations, pcfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Build(reqs, locations, pcfg, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		perEdge := float64(res.AllocedBytesPerOp()) / float64(in.Graph.M())
		t.Logf("rf %d: %d edges, %d bytes, %.1f bytes/edge", rf, in.Graph.M(), res.AllocedBytesPerOp(), perEdge)
		if perEdge > 20 {
			t.Errorf("rf %d: Build allocates %.1f bytes per edge, want at most 20", rf, perEdge)
		}
	}
}

// BenchmarkBuild times the reduction on the allocation guard's fixture.
func BenchmarkBuild(b *testing.B) {
	pcfg := power.DefaultConfig()
	for _, rf := range []int{2, 3, 5} {
		reqs, locations, opts := buildFixture(b, rf)
		b.Run(fmt.Sprintf("rf=%d", rf), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(reqs, locations, pcfg, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSolveAllocatesPerVertex bounds what the default Solve allocates per
// vertex of the reduction. It runs GWMIN on the reduction's request ranges
// and never builds the conflict graph, so nothing it holds grows with the
// edges: about 160 bytes per vertex at both replication factors. A CSR
// alone would cost 8 bytes per edge, 137 and 264 bytes per vertex on these
// fixtures, and building one puts Solve near 300 and 425.
func TestSolveAllocatesPerVertex(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	pcfg := power.DefaultConfig()
	for _, rf := range []int{3, 5} {
		reqs, locations, opts := buildFixture(t, rf)
		in, err := Build(reqs, locations, pcfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := Solve(reqs, locations, pcfg, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		perVertex := float64(res.AllocedBytesPerOp()) / float64(in.Graph.N())
		t.Logf("rf %d: %d vertices, %d edges, %d bytes, %.1f bytes/vertex", rf, in.Graph.N(), in.Graph.M(), res.AllocedBytesPerOp(), perVertex)
		if perVertex > 200 {
			t.Errorf("rf %d: Solve allocates %.1f bytes per vertex, want at most 200", rf, perVertex)
		}
	}
}

// BenchmarkSolve times the default greedy pipeline on the same fixture.
func BenchmarkSolve(b *testing.B) {
	pcfg := power.DefaultConfig()
	for _, rf := range []int{2, 3, 5} {
		reqs, locations, opts := buildFixture(b, rf)
		b.Run(fmt.Sprintf("rf=%d", rf), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := Solve(reqs, locations, pcfg, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
