package offline

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/placement"
	"repro/internal/power"
	"repro/internal/workload"
)

// checkGreedy fails unless GWMIN run on the reduction's request ranges
// selects exactly what graph.GWMIN selects on Build's graph, in the same
// order, and unless Solve's schedule is the one that selection derives.
func checkGreedy(t *testing.T, reqs []core.Request, locations func(core.BlockID) []core.DiskID, cfg power.Config, opts BuildOptions) {
	t.Helper()
	in, err := Build(reqs, locations, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := graph.GWMIN(in.Graph)
	rd, err := reduce(reqs, locations, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := rd.gwmin(); !slices.Equal(got, want) {
		t.Fatalf("range greedy selected %v, graph.GWMIN %v", got, want)
	}
	wantSched, err := in.DeriveSchedule(reqs, locations, want)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Solve(reqs, locations, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, wantSched) {
		t.Fatalf("Solve scheduled %v, GWMIN on Build's graph derives %v", got, wantSched)
	}
}

// checkResidual deletes every third vertex of a fresh reduction, in a
// scattered order, and fails unless each survivor's residual degree is its
// number of alive neighbours in adj.
func checkResidual(t *testing.T, rd *reduction, adj [][]int32) {
	t.Helper()
	n := len(rd.w)
	alive := make([]bool, n)
	for v := range alive {
		alive[v] = true
	}
	for k := 0; k < n; k += 3 {
		v := k * 7 % n
		if alive[v] {
			alive[v] = false
			rd.count(v, -1)
		}
	}
	for v, nbrs := range adj {
		if !alive[v] {
			continue
		}
		want := int32(0)
		for _, u := range nbrs {
			if alive[u] {
				want++
			}
		}
		if got := rd.degree(v); got != want {
			t.Fatalf("vertex %d %+v: residual degree %d, %d alive neighbours", v, rd.node(v), got, want)
		}
	}
}

// TestRangeGreedyMatchesGWMIN is the differential oracle of the default
// solve path: over both trace shapes, arrival ties, replication factors 1
// to 5 and the exact and the capped reduction, the range greedy must
// select what graph.GWMIN selects on the conflict graph, order included.
func TestRangeGreedyMatchesGWMIN(t *testing.T) {
	t.Parallel()
	pcfg := power.DefaultConfig()
	streams := map[string][]core.Request{
		"cello":     workload.CelloLike(128, 120, 3),
		"financial": workload.FinancialLike(128, 120, 4),
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
						opts := BuildOptions{MaxSuccessors: succ}
						rd, err := reduce(reqs, plc.Locations, pcfg, opts)
						if err != nil {
							t.Fatal(err)
						}
						adj, _ := conflictOracle(rd.nodes())
						checkResidual(t, rd, adj)
						checkGreedy(t, reqs, plc.Locations, pcfg, opts)
					})
				}
			}
		}
	}
}

// TestRangeGreedyMatchesGWMINOnFixtures runs the oracle on the allocation
// guard's 6,000-request fixture, the Theorem 3 gadget and batch-style
// instances whose requests all arrive at once.
func TestRangeGreedyMatchesGWMINOnFixtures(t *testing.T) {
	t.Parallel()
	pcfg := power.DefaultConfig()
	for _, rf := range []int{3, 5} {
		t.Run(fmt.Sprintf("fixture/rf=%d", rf), func(t *testing.T) {
			reqs, locations, opts := buildFixture(t, rf)
			checkGreedy(t, reqs, locations, pcfg, opts)
		})
	}
	t.Run("gadget", func(t *testing.T) {
		// The Petersen graph: every vertex on three edges.
		var edges [][2]int
		for i := 0; i < 5; i++ {
			edges = append(edges, [2]int{i, (i + 1) % 5}, [2]int{i, i + 5}, [2]int{i + 5, (i+2)%5 + 5})
		}
		cfg := power.ToyConfig()
		reqs, locations, err := Gadget(10, edges, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkGreedy(t, reqs, locations, cfg, BuildOptions{})
	})
	for _, rf := range []int{2, 3, 5} {
		t.Run(fmt.Sprintf("batch/rf=%d", rf), func(t *testing.T) {
			plc, err := placement.Generate(placement.GenerateConfig{
				NumDisks: 12, NumBlocks: 200, ReplicationFactor: rf, ZipfExponent: 1, Seed: int64(rf),
			})
			if err != nil {
				t.Fatal(err)
			}
			reqs := workload.CelloLike(48, 200, int64(rf))
			for i := range reqs {
				reqs[i].Arrival = 0
			}
			checkGreedy(t, reqs, plc.Locations, pcfg, BuildOptions{})
		})
	}
}
