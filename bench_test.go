package repro

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/diskmodel"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/offline"
	"repro/internal/placement"
	"repro/internal/sched"
	"repro/internal/storage"
	"repro/internal/workload"
)

// benchFixture is the 12-disk fixture the ablations, the replay benchmark
// and the allocation pins (alloc_test.go) share: 1,500 Cello-like requests over 800
// Zipf-placed blocks at replication factor rf.
func benchFixture(tb testing.TB, rf int) ([]Request, *placement.Placement, storage.Config) {
	tb.Helper()
	const disks, blocks, requests = 12, 800, 1500
	plc, err := placement.Generate(placement.GenerateConfig{
		NumDisks: disks, NumBlocks: blocks,
		ReplicationFactor: rf, ZipfExponent: 1, Seed: 7,
	})
	if err != nil {
		tb.Fatal(err)
	}
	reqs := workload.CelloLike(requests, blocks, 1)
	cfg := storage.DefaultConfig()
	cfg.NumDisks = disks
	return reqs, plc, cfg
}

// --- Ablation benchmarks (design choices called out in DESIGN.md) -------

// BenchmarkAblationMWISNoRefinement isolates the local-search contribution:
// compare ns/op and the reported energy against the refined pipeline.
func BenchmarkAblationMWISNoRefinement(b *testing.B) {
	reqs, plc, cfg := benchFixture(b, 3)
	b.ResetTimer()
	var energy float64
	for i := 0; i < b.N; i++ {
		_, st, err := offline.Solve(reqs, plc.Locations, cfg.Power, offline.BuildOptions{MaxSuccessors: 4})
		if err != nil {
			b.Fatal(err)
		}
		energy = st.Energy
	}
	b.ReportMetric(energy, "joules")
}

func BenchmarkAblationMWISWithRefinement(b *testing.B) {
	reqs, plc, cfg := benchFixture(b, 3)
	b.ResetTimer()
	var energy float64
	for i := 0; i < b.N; i++ {
		_, st, err := offline.SolveRefined(reqs, plc.Locations, cfg.Power, offline.BuildOptions{MaxSuccessors: 4}, 4)
		if err != nil {
			b.Fatal(err)
		}
		energy = st.Energy
	}
	b.ReportMetric(energy, "joules")
}

// BenchmarkAblationSuccessorCap measures how the MWIS graph-construction
// cap trades graph size (and build time) against schedule quality.
func BenchmarkAblationSuccessorCap(b *testing.B) {
	reqs, plc, cfg := benchFixture(b, 3)
	for _, cap := range []int{1, 4, 16} {
		cap := cap
		b.Run(fmt.Sprintf("cap=%d", cap), func(b *testing.B) {
			var energy float64
			for i := 0; i < b.N; i++ {
				_, st, err := offline.Solve(reqs, plc.Locations, cfg.Power, offline.BuildOptions{MaxSuccessors: cap})
				if err != nil {
					b.Fatal(err)
				}
				energy = st.Energy
			}
			b.ReportMetric(energy, "joules")
		})
	}
}

// BenchmarkAblationBatchInterval measures the WSC queueing/energy tradeoff
// across scheduling intervals (the paper fixes 0.1 s).
func BenchmarkAblationBatchInterval(b *testing.B) {
	reqs, plc, cfg := benchFixture(b, 3)
	w := sched.WSC{Locations: plc.Locations, Cost: sched.DefaultCost(cfg.Power)}
	for _, interval := range []time.Duration{10 * time.Millisecond, 100 * time.Millisecond, time.Second} {
		interval := interval
		b.Run(interval.String(), func(b *testing.B) {
			var mean time.Duration
			for i := 0; i < b.N; i++ {
				res, err := storage.RunBatch(cfg, plc.Locations, w, reqs, interval)
				if err != nil {
					b.Fatal(err)
				}
				mean = res.Response.Mean()
			}
			b.ReportMetric(float64(mean.Milliseconds()), "ms-mean-response")
		})
	}
}

// BenchmarkAblationCoverSolver compares the greedy and exact covers on the
// real WSC batch path: cost difference shows the greedy's optimality gap.
func BenchmarkAblationCoverSolver(b *testing.B) {
	reqs, plc, cfg := benchFixture(b, 3)
	cost := sched.DefaultCost(cfg.Power)
	for _, solver := range []struct {
		name  string
		batch sched.Batch
	}{
		{"greedy", sched.WSC{Locations: plc.Locations, Cost: cost}},
		{"exact", sched.WSCExact{Locations: plc.Locations, Cost: cost, MaxExpansions: 50000}},
	} {
		solver := solver
		b.Run(solver.name, func(b *testing.B) {
			var energy float64
			for i := 0; i < b.N; i++ {
				res, err := storage.RunBatch(cfg, plc.Locations, solver.batch, reqs, 100*time.Millisecond)
				if err != nil {
					b.Fatal(err)
				}
				energy = res.Energy
			}
			b.ReportMetric(energy, "joules")
		})
	}
}

// BenchmarkAblationQueueDiscipline measures how the per-disk service order
// affects response time under the heuristic scheduler.
func BenchmarkAblationQueueDiscipline(b *testing.B) {
	reqs, plc, cfg := benchFixture(b, 3)
	h := sched.Heuristic{Locations: plc.Locations, Cost: sched.DefaultCost(cfg.Power)}
	for _, disc := range []diskmodel.Discipline{diskmodel.FIFO, diskmodel.SSTF, diskmodel.SCAN} {
		disc := disc
		b.Run(disc.String(), func(b *testing.B) {
			var mean time.Duration
			dcfg := cfg
			dcfg.Discipline = disc
			for i := 0; i < b.N; i++ {
				res, err := storage.RunOnline(dcfg, plc.Locations, h, reqs)
				if err != nil {
					b.Fatal(err)
				}
				mean = res.Response.Mean()
			}
			b.ReportMetric(float64(mean.Milliseconds()), "ms-mean-response")
		})
	}
}

// --- Trace analytics --------------------------------------------------

// BenchmarkAnalyzeReplay measures the tracelens replay engine: decode a
// recorded binary event log, reconstruct the run (lifecycles, power-state
// timelines, decision index) and replay it into a fresh metrics collector.
// Throughput is reported as events/sec.
func BenchmarkAnalyzeReplay(b *testing.B) {
	reqs, plc, cfg := benchFixture(b, 3)
	var log bytes.Buffer
	tr := obs.NewTracer(1024)
	tr.SetSink(&log, true)
	h := sched.Heuristic{Locations: plc.Locations, Cost: sched.DefaultCost(cfg.Power), Tracer: tr}
	if _, err := storage.RunOnline(cfg, plc.Locations, h, reqs,
		storage.WithTracer(tr)); err != nil {
		b.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		b.Fatal(err)
	}
	raw := log.Bytes()
	events, err := analyze.Read(bytes.NewReader(raw))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		evs, err := analyze.Read(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		run, err := analyze.New(evs)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := run.Replay(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(len(events))*float64(b.N)/secs, "events/sec")
	}
}
