package offline

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
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

// TestReduceNodeOrder checks reduce's vertex columns against Build's
// nodes, entry by entry, and their order against a comparison sort by
// (I, J, Disk), with request IDs shuffled out of arrival order, over
// replication factors 1 to 5 and the exact and the capped reduction. It
// also feeds orderNodes the same vertices shuffled across random shards,
// several per disk, which must come back in that order, none lost or
// repeated, with every shard's buffer released.
func TestReduceNodeOrder(t *testing.T) {
	t.Parallel()
	const disks = 16
	pcfg := power.DefaultConfig()
	rng := rand.New(rand.NewSource(5))
	reqs := reshape(workload.CelloLike(160, 120, 3), 20, 0)
	for i, id := range rng.Perm(len(reqs)) {
		reqs[i].ID = core.RequestID(id)
	}
	for rf := 1; rf <= 5; rf++ {
		plc, err := placement.Generate(placement.GenerateConfig{
			NumDisks: disks, NumBlocks: 120, ReplicationFactor: rf, ZipfExponent: 1, Seed: int64(rf),
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, succ := range []int{0, 4} {
			opts := BuildOptions{MaxSuccessors: succ}
			rd, err := reduce(reqs, plc.Locations, pcfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			in, err := Build(reqs, plc.Locations, pcfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			n := len(in.Nodes)
			if n == 0 {
				t.Fatalf("rf=%d succ=%d: no nodes: the fixture exercises nothing", rf, succ)
			}
			if len(rd.i) != n || len(rd.j) != n || len(rd.disk) != n || len(rd.w) != n {
				t.Fatalf("rf=%d succ=%d: columns of %d, %d, %d and %d entries, Build has %d nodes",
					rf, succ, len(rd.i), len(rd.j), len(rd.disk), len(rd.w), n)
			}
			for v, nd := range in.Nodes {
				if int(rd.i[v]) != int(nd.I) || int(rd.j[v]) != int(nd.J) || int(rd.disk[v]) != int(nd.Disk) || rd.w[v] != nd.Weight {
					t.Fatalf("rf=%d succ=%d: vertex %d is (%d, %d, %d, %v) in the columns, Build says %+v",
						rf, succ, v, rd.i[v], rd.j[v], rd.disk[v], rd.w[v], nd)
				}
			}
			want := sortedNodes(in.Nodes)
			if !slices.Equal(in.Nodes, want) {
				t.Fatalf("rf=%d succ=%d: reduce's vertex order is not (I, J, Disk)", rf, succ)
			}
			shuffled := slices.Clone(want)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			perDisk := make([][]arc, disks)
			for _, nd := range shuffled {
				perDisk[nd.Disk] = append(perDisk[nd.Disk], arc{int32(nd.I), int32(nd.J), nd.Weight})
			}
			var shards []diskArcs
			for d, arcs := range perDisk {
				for len(arcs) > 0 {
					k := min(len(arcs), 1+rng.Intn(50))
					shards = append(shards, diskArcs{int32(d), arcs[:k]})
					arcs = arcs[k:]
				}
			}
			rng.Shuffle(len(shards), func(i, j int) { shards[i], shards[j] = shards[j], shards[i] })
			if got := orderNodes(shards, n); !slices.Equal(got.nodes(), want) {
				t.Fatalf("rf=%d succ=%d: orderNodes on shuffled shards is not (I, J, Disk)", rf, succ)
			}
			for s, da := range shards {
				if da.arcs != nil {
					t.Fatalf("rf=%d succ=%d: orderNodes kept shard %d's buffer of %d arcs", rf, succ, s, len(da.arcs))
				}
			}
		}
	}
}

// TestReduceRejectsBadIDs checks that reduce, and so Build and Solve,
// returns an error up front for request IDs that are not a permutation of
// 0..n-1 and for disk IDs outside [0, MaxInt32], instead of panicking on
// an index or wrapping a disk onto another in the int32 columns.
func TestReduceRejectsBadIDs(t *testing.T) {
	pcfg := power.DefaultConfig()
	wide := core.DiskID(math.MaxInt32)
	wide++
	cases := []struct {
		name string
		ids  []core.RequestID
		disk core.DiskID
		want string
	}{
		{"id past n", []core.RequestID{0, 5}, 1, "permutation"},
		{"negative id", []core.RequestID{-1, 1}, 1, "permutation"},
		{"repeated id", []core.RequestID{1, 1}, 1, "permutation"},
		{"negative disk", []core.RequestID{0, 1}, -1, "outside"},
		{"disk past int32", []core.RequestID{0, 1}, wide, "outside"},
		{"disk 1<<33", []core.RequestID{0, 1}, wide << 2, "outside"},
	}
	for _, tc := range cases {
		var reqs []core.Request
		for k, id := range tc.ids {
			reqs = append(reqs, core.Request{ID: id, Block: core.BlockID(k), Arrival: time.Duration(k) * time.Second})
		}
		// Block 0 sits on disk 0, block 1 on disk 0 and tc.disk, so the two
		// requests make a vertex on disk 0 when the IDs are valid.
		locations := func(b core.BlockID) []core.DiskID {
			if b == 0 {
				return []core.DiskID{0}
			}
			return []core.DiskID{0, tc.disk}
		}
		if _, err := reduce(reqs, locations, pcfg, BuildOptions{}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: reduce returned %v, want an error mentioning %q", tc.name, err, tc.want)
		}
		if _, err := Build(reqs, locations, pcfg, BuildOptions{}); err == nil {
			t.Errorf("%s: Build returned no error", tc.name)
		}
		if _, _, err := Solve(reqs, locations, pcfg, BuildOptions{}); err == nil {
			t.Errorf("%s: Solve returned no error", tc.name)
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
		nodes := rd.nodes()
		if !slices.Equal(nodes, sortedNodes(nodes)) {
			t.Fatal("reduce's vertex order is not (I, J, Disk)")
		}
		adj, _ := conflictOracle(nodes)
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
// edges. The vertex table is int32 columns plus a weight column, 20 bytes
// per vertex, and the whole pipeline allocates about 107 and 109 bytes per
// vertex at the two replication factors. A CSR alone would cost 8 bytes per edge,
// 137 and 264 bytes per vertex on these fixtures.
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
		res := testing.Benchmark(func(b *testing.B) { benchSolve(b, reqs, locations, opts) })
		perVertex := res.Extra["B/vertex"]
		t.Logf("rf %d: %d vertices, %d edges, %d bytes, %.1f bytes/vertex", rf, in.Graph.N(), in.Graph.M(), res.AllocedBytesPerOp(), perVertex)
		if perVertex > 110 {
			t.Errorf("rf %d: Solve allocates %.1f bytes per vertex, want at most 110", rf, perVertex)
		}
	}
}

// BenchmarkSolve times the default greedy pipeline on the same fixture and
// reports its allocation per vertex of the reduction as B/vertex.
func BenchmarkSolve(b *testing.B) {
	for _, rf := range []int{2, 3, 5} {
		reqs, locations, opts := buildFixture(b, rf)
		b.Run(fmt.Sprintf("rf=%d", rf), func(b *testing.B) { benchSolve(b, reqs, locations, opts) })
	}
}

// benchSolve runs Solve b.N times and reports the bytes each run allocates
// per vertex of the reduction as the B/vertex metric.
func benchSolve(b *testing.B, reqs []core.Request, locations func(core.BlockID) []core.DiskID, opts BuildOptions) {
	pcfg := power.DefaultConfig()
	rd, err := reduce(reqs, locations, pcfg, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Solve(reqs, locations, pcfg, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/float64(len(rd.w)), "B/vertex")
}
