package offline

import (
	"testing"

	"repro/internal/placement"
	"repro/internal/power"
	"repro/internal/workload"
)

// TestPipelineDeterministicAcrossWorkers pins the offline pipeline's
// contract: the sharded reduction, GWMIN on its request ranges and the
// Improve local search produce bit-identical schedules, energy, and
// spin-up counts for every worker count. Shard-ordered vertex merging and
// integer degree maintenance make this exact, not approximate — any
// floating-point reassociation or order dependence sneaking into the
// pipeline fails this test.
func TestPipelineDeterministicAcrossWorkers(t *testing.T) {
	t.Parallel()
	plc, err := placement.Generate(placement.GenerateConfig{
		NumDisks: 12, NumBlocks: 600, ReplicationFactor: 3, ZipfExponent: 1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs := workload.CelloLike(1200, 600, 1)
	pcfg := power.DefaultConfig()

	type outcome struct {
		sched  []int32
		energy float64
		saving float64
		ups    int
		downs  int
	}
	run := func(workers int) outcome {
		sched, st, err := SolveRefined(reqs, plc.Locations, pcfg, BuildOptions{
			MaxSuccessors: 4,
			Workers:       workers,
		}, 2)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		o := outcome{energy: st.Energy, saving: st.Saving, ups: st.SpinUps, downs: st.SpinDowns}
		for _, d := range sched {
			o.sched = append(o.sched, int32(d))
		}
		return o
	}

	want := run(1)
	for _, workers := range []int{2, 8} {
		got := run(workers)
		if len(got.sched) != len(want.sched) {
			t.Fatalf("workers=%d: schedule length %d, want %d", workers, len(got.sched), len(want.sched))
		}
		for i := range want.sched {
			if got.sched[i] != want.sched[i] {
				t.Fatalf("workers=%d: request %d on disk %d, serial says %d",
					workers, i, got.sched[i], want.sched[i])
			}
		}
		// Bit-identical, not approximately equal.
		if got.energy != want.energy || got.saving != want.saving {
			t.Errorf("workers=%d: energy/saving = %v/%v, serial says %v/%v",
				workers, got.energy, got.saving, want.energy, want.saving)
		}
		if got.ups != want.ups || got.downs != want.downs {
			t.Errorf("workers=%d: spin ups/downs = %d/%d, serial says %d/%d",
				workers, got.ups, got.downs, want.ups, want.downs)
		}
	}
}

// TestBuildDeterministicAcrossWorkers checks the constructed instance
// itself: node list and edge count are identical for serial and sharded
// construction.
func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	t.Parallel()
	plc, err := placement.Generate(placement.GenerateConfig{
		NumDisks: 8, NumBlocks: 400, ReplicationFactor: 2, ZipfExponent: 0.5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs := workload.CelloLike(800, 400, 2)
	pcfg := power.DefaultConfig()

	serial, err := Build(reqs, plc.Locations, pcfg, BuildOptions{MaxSuccessors: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Build(reqs, plc.Locations, pcfg, BuildOptions{MaxSuccessors: 4, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Nodes) != len(parallel.Nodes) {
		t.Fatalf("node count %d parallel vs %d serial", len(parallel.Nodes), len(serial.Nodes))
	}
	for i := range serial.Nodes {
		if serial.Nodes[i] != parallel.Nodes[i] {
			t.Fatalf("node %d = %+v parallel, %+v serial", i, parallel.Nodes[i], serial.Nodes[i])
		}
	}
	if serial.Graph.M() != parallel.Graph.M() {
		t.Fatalf("edge count %d parallel vs %d serial", parallel.Graph.M(), serial.Graph.M())
	}
}
