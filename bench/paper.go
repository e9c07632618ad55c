package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/offline"
	"repro/internal/placement"
	"repro/internal/sched"
	"repro/internal/storage"
)

// paperScale is the paper-10k input: the paper's Section 4 setup (180
// disks, 30k blocks) with 10,000 of its 70,000 requests, at the run's seed,
// or SmallScale for a smoke run.
func paperScale(cfg runConfig) experiments.Scale {
	s := experiments.FullScale()
	s.NumRequests = paperRequests
	if cfg.smoke {
		s = experiments.SmallScale()
	}
	s.Seed = cfg.seed
	return s
}

// paperRequests sizes one cold regeneration at a few seconds and a few
// hundred MB, so a run repeats it in fresh children and reports medians;
// the full 70k requests take over 20 s and 2 GB, one noisy sample a run.
const paperRequests = 10_000

// figure is one rendered table of the paper, named by its figure number.
type figure struct {
	name string
	text string
}

// paperOutput is one cold regeneration of Figures 2-17.
type paperOutput struct {
	figures []figure
	// sweeps holds the Cello and Financial1 replication sweeps behind
	// Figures 6-8/13 and 14-16, for the invariant and replay checks.
	sweeps map[experiments.Trace]*experiments.ReplicationSweep
	// calls is the wall time of each top-level public call, in call order.
	calls []time.Duration
}

// regenerate renders Figures 2-17 through the same public calls, in the same
// order, as cmd/figures.
func regenerate(s experiments.Scale) (*paperOutput, error) {
	out := &paperOutput{sweeps: map[experiments.Trace]*experiments.ReplicationSweep{}}
	call := func(f func() error) error {
		t0 := time.Now()
		err := f()
		out.calls = append(out.calls, time.Since(t0))
		return err
	}
	emit := func(name string, t *experiments.Table) {
		out.figures = append(out.figures, figure{name, t.Render()})
	}
	for _, f := range []struct {
		name string
		fn   func() *experiments.Table
	}{{"2", experiments.Figure2}, {"3", experiments.Figure3}, {"4", experiments.Figure4}, {"5", experiments.Figure5}} {
		_ = call(func() error { emit(f.name, f.fn()); return nil })
	}
	type sweepTable = func(*experiments.ReplicationSweep) *experiments.Table
	sweep := func(tr experiments.Trace, tables []sweepTable) error {
		return call(func() error {
			sw, err := experiments.SweepReplication(s, tr)
			if err != nil {
				return err
			}
			out.sweeps[tr] = sw
			for i, t := range tables {
				emit(sweepFigures[tr][i], t(sw))
			}
			return nil
		})
	}
	single := func(name string, fn func(experiments.Scale, experiments.Trace) (*experiments.Table, error), tr experiments.Trace) error {
		return call(func() error {
			t, err := fn(s, tr)
			if err != nil {
				return err
			}
			emit(name, t)
			return nil
		})
	}
	steps := []func() error{
		func() error {
			return sweep(experiments.Cello, []sweepTable{(*experiments.ReplicationSweep).Figure6,
				(*experiments.ReplicationSweep).Figure7, (*experiments.ReplicationSweep).Figure8,
				(*experiments.ReplicationSweep).Figure13})
		},
		func() error { return single("9", experiments.Figure9, experiments.Cello) },
		func() error { return single("10", experiments.Figure10, experiments.Cello) },
		func() error { return single("11", experiments.Figure11, experiments.Cello) },
		func() error { return single("12", experiments.Figure12, experiments.Cello) },
		func() error {
			return sweep(experiments.Financial, []sweepTable{(*experiments.ReplicationSweep).Figure6,
				(*experiments.ReplicationSweep).Figure7, (*experiments.ReplicationSweep).Figure8})
		},
		func() error { return single("17", experiments.Figure9, experiments.Financial) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// hashes returns the SHA-256 of every rendered table, keyed by figure.
func (p *paperOutput) hashes() map[string]string {
	h := map[string]string{}
	for _, f := range p.figures {
		sum := sha256.Sum256([]byte(f.text))
		h[f.name] = hex.EncodeToString(sum[:])
	}
	return h
}

// checkSweep verifies what must hold for any seed. At replication factor 1
// every block has a single replica, so Random, Static and Heuristic are
// forced into identical dispatches and must agree exactly; every energy is
// positive and finite; the offline MWIS model reports no response time and
// every online scheduler does.
func checkSweep(sw *experiments.ReplicationSweep) error {
	ref, _ := sw.Get(1, experiments.AlgoStatic)
	for _, algo := range []string{experiments.AlgoRandom, experiments.AlgoHeuristic} {
		r, _ := sw.Get(1, algo)
		if r.NormEnergy != ref.NormEnergy || r.SpinUps != ref.SpinUps || r.P90 != ref.P90 {
			return fmt.Errorf("%s rf=1: %s differs from static with a single replica", sw.Trace, algo)
		}
	}
	for _, rf := range sw.RFs {
		for _, r := range sw.Runs[rf] {
			if !(r.NormEnergy > 0) || math.IsInf(r.NormEnergy, 0) {
				return fmt.Errorf("%s rf=%d %s: normalized energy %v", sw.Trace, rf, r.Algo, r.NormEnergy)
			}
			if (r.Algo == experiments.AlgoMWIS) != (r.P90 == 0) {
				return fmt.Errorf("%s rf=%d %s: p90 %v", sw.Trace, rf, r.Algo, r.P90)
			}
		}
	}
	return nil
}

// sweepFigures names the tables each sweep renders, so a broken sweep
// fails exactly the figures drawn from it.
var sweepFigures = map[experiments.Trace][]string{
	experiments.Cello:     {"6", "7", "8", "13"},
	experiments.Financial: {"14", "15", "16"},
}

func runPaper(cfg runConfig, r *result) {
	s := paperScale(cfg)
	r.ReadyNS = time.Now().UnixNano()
	cpu0 := cpuTime()
	t0 := time.Now()
	out, err := regenerate(s)
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	r.Attempted = 16
	if err != nil {
		r.Failed = r.Attempted
		r.fail("paper sweep: %v", err)
		return
	}
	failed := map[string]bool{}
	for tr, names := range sweepFigures {
		if err := checkSweep(out.sweeps[tr]); err != nil {
			r.fail("%v", err)
			for _, n := range names {
				failed[n] = true
			}
		}
	}
	bad, err := checkGolden(cfg, paperGoldenName(cfg), out.hashes())
	if err != nil {
		r.fail("%v", err)
	}
	for _, n := range bad {
		failed[n] = true
	}
	r.Failed = int64(len(failed))
	if len(out.figures) != int(r.Attempted) {
		r.fail("rendered %d figures, want %d", len(out.figures), r.Attempted)
	}

	r.Throughput = 1 / wall.Seconds()
	if !cfg.trace {
		// One cold regeneration is one item and one call: the time a user
		// of `figures` waits.
		r.sampleCalls(1, wall, 1, wall, cpu)
		r.sample("peak_rss_mb", peakRSSMB())
		return
	}
	var l paperLayers
	t1 := time.Now()
	if err := l.replay(s, out.sweeps); err != nil {
		r.fail("replay: %v", err)
	}
	l.set(r, time.Since(t1))
}

func paperGoldenName(cfg runConfig) string {
	if cfg.smoke {
		return "paper-10k-smoke"
	}
	return "paper-10k"
}

// paperLayers accumulates the traced re-execution of the replication
// sweeps' cells, split by the package each public call belongs to.
type paperLayers struct {
	requestGen, placement        time.Duration // workload.*, placement.Generate
	build, solve, improve        time.Duration // offline.*
	sim                          time.Duration // storage.RunOnline/RunBatch, scheduler calls included
	heurNS, wscNS, otherSchedNS  time.Duration
	heurCalls, wscRounds, wscReq int64
	nodes, edges                 int64
	requests, spinUps, spinDowns int64
}

// timedOnline times every Schedule call of an online scheduler.
type timedOnline struct {
	sched.Online
	ns    *time.Duration
	calls *int64
}

func (t timedOnline) Schedule(req core.Request, v sched.View) core.DiskID {
	t0 := time.Now()
	d := t.Online.Schedule(req, v)
	*t.ns += time.Since(t0)
	*t.calls++
	return d
}

// timedBatch times every ScheduleBatch call of a batch scheduler.
type timedBatch struct {
	sched.Batch
	ns     *time.Duration
	rounds *int64
	reqs   *int64
}

func (t timedBatch) ScheduleBatch(reqs []core.Request, v sched.View) []core.DiskID {
	t0 := time.Now()
	out := t.Batch.ScheduleBatch(reqs, v)
	*t.ns += time.Since(t0)
	*t.rounds++
	*t.reqs += int64(len(reqs))
	return out
}

// replay re-executes the 50 replication-sweep cells (two traces, five
// replication factors, five algorithms) serially through the public calls
// the experiments package makes, and requires each cell to reproduce the
// sweep's normalized energy, spin-ups and p90 bit for bit.
func (l *paperLayers) replay(s experiments.Scale, sweeps map[experiments.Trace]*experiments.ReplicationSweep) error {
	cfg := storage.DefaultConfig()
	cfg.NumDisks = s.NumDisks
	cfg.Shards = s.Shards
	cost := sched.DefaultCost(storage.DefaultConfig().Power)
	for _, tr := range []experiments.Trace{experiments.Cello, experiments.Financial} {
		t0 := time.Now()
		reqs := tr.Requests(s)
		l.requestGen += time.Since(t0)
		for _, rf := range experiments.ReplicationFactors() {
			t0 = time.Now()
			plc, err := placement.Generate(placement.GenerateConfig{
				NumDisks: s.NumDisks, NumBlocks: s.NumBlocks,
				ReplicationFactor: rf, ZipfExponent: 1, Seed: s.Seed + 7,
			})
			l.placement += time.Since(t0)
			if err != nil {
				return err
			}
			for i, algo := range experiments.Algorithms() {
				got, err := l.cell(s, cfg, cost, reqs, plc, algo)
				if err != nil {
					return fmt.Errorf("%s rf=%d %s: %w", tr, rf, algo, err)
				}
				want := sweeps[tr].Runs[rf][i]
				if math.Float64bits(got.NormEnergy) != math.Float64bits(want.NormEnergy) ||
					got.SpinUps != want.SpinUps || got.P90 != want.P90 {
					return fmt.Errorf("%s rf=%d %s: replay (%v, %d, %v) differs from sweep (%v, %d, %v)",
						tr, rf, algo, got.NormEnergy, got.SpinUps, got.P90, want.NormEnergy, want.SpinUps, want.P90)
				}
			}
		}
	}
	return nil
}

// cell runs one algorithm the way the experiments package does, timing
// each layer it passes through.
func (l *paperLayers) cell(s experiments.Scale, cfg storage.Config, cost sched.CostConfig,
	reqs []core.Request, plc *placement.Placement, algo string) (experiments.Run, error) {
	if algo == experiments.AlgoMWIS {
		opts := offline.BuildOptions{MaxSuccessors: s.MWISSuccessors, MaxNodes: s.MWISMaxNodes, Workers: s.SolverWorkers()}
		t0 := time.Now()
		in, err := offline.Build(reqs, plc.Locations, cfg.Power, opts)
		l.build += time.Since(t0)
		if err != nil {
			return experiments.Run{}, err
		}
		l.nodes += int64(in.Graph.N())
		l.edges += int64(in.Graph.M())
		// The rest of offline.SolveRefined, step by step: the greedy MWIS,
		// the schedule it selects, refinement and evaluation.
		t0 = time.Now()
		selected, _ := graph.ParallelGWMIN(in.Graph, opts.Workers)
		schedule, err := in.DeriveSchedule(reqs, plc.Locations, selected)
		if err != nil {
			return experiments.Run{}, err
		}
		if _, err := offline.Evaluate(reqs, schedule, cfg.Power, plc.Locations); err != nil {
			return experiments.Run{}, err
		}
		t1 := time.Now()
		schedule, _, err = offline.Improve(reqs, schedule, cfg.Power, plc.Locations, s.MWISPasses)
		if err != nil {
			return experiments.Run{}, err
		}
		l.improve += time.Since(t1)
		if _, err := offline.Evaluate(reqs, schedule, cfg.Power, plc.Locations); err != nil {
			return experiments.Run{}, err
		}
		horizon := offline.Horizon(reqs, cfg.Power)
		perDisk, err := offline.Breakdown(reqs, schedule, cfg.Power, s.NumDisks, horizon)
		l.solve += time.Since(t0)
		if err != nil {
			return experiments.Run{}, err
		}
		run := experiments.Run{
			Algo:       algo,
			NormEnergy: offline.BreakdownEnergy(perDisk) / offline.AlwaysOnEnergy(cfg.Power, s.NumDisks, horizon),
		}
		for _, st := range perDisk {
			run.SpinUps += st.SpinUps
		}
		return run, nil
	}

	t0 := time.Now()
	var res *storage.Result
	var err error
	switch algo {
	case experiments.AlgoRandom:
		res, err = storage.RunOnline(cfg, plc.Locations,
			timedOnline{sched.NewRandom(plc.Locations, s.Seed+1), &l.otherSchedNS, new(int64)}, reqs)
	case experiments.AlgoStatic:
		res, err = storage.RunOnline(cfg, plc.Locations,
			timedOnline{sched.Static{Locations: plc.Locations}, &l.otherSchedNS, new(int64)}, reqs)
	case experiments.AlgoHeuristic:
		res, err = storage.RunOnline(cfg, plc.Locations,
			timedOnline{sched.Heuristic{Locations: plc.Locations, Cost: cost}, &l.heurNS, &l.heurCalls}, reqs)
	case experiments.AlgoWSC:
		res, err = storage.RunBatch(cfg, plc.Locations,
			timedBatch{sched.WSC{Locations: plc.Locations, Cost: cost, Scratch: &sched.CoverScratch{}}, &l.wscNS, &l.wscRounds, &l.wscReq},
			reqs, s.BatchInterval)
	default:
		return experiments.Run{}, fmt.Errorf("unknown algorithm %q", algo)
	}
	l.sim += time.Since(t0)
	if err != nil {
		return experiments.Run{}, err
	}
	l.requests += int64(res.Served)
	l.spinUps += int64(res.SpinUps)
	l.spinDowns += int64(res.SpinDowns)
	return experiments.Run{Algo: algo, NormEnergy: res.NormalizedEnergy(), SpinUps: res.SpinUps,
		P90: res.Response.Percentile(90)}, nil
}

// set reports the replay's per-layer metrics; wall is the replay's own
// wall time, which the timed layers must explain.
func (l *paperLayers) set(r *result, wall time.Duration) {
	schedNS := l.heurNS + l.wscNS + l.otherSchedNS
	m := r.Metrics
	m["offline.solve_s"] = l.solve.Seconds()
	m["offline.build_s"] = l.build.Seconds()
	m["offline.improve_s"] = l.improve.Seconds()
	m["offline.graph_nodes"] = float64(l.nodes)
	m["offline.graph_edges"] = float64(l.edges)
	m["sched.heuristic_calls"] = float64(l.heurCalls)
	m["sched.heuristic_ns"] = perOp(l.heurNS, l.heurCalls)
	m["sched.wsc_rounds"] = float64(l.wscRounds)
	m["sched.wsc_reqs_per_round"] = ratio(float64(l.wscReq), float64(l.wscRounds))
	m["sched.wsc_ns_per_req"] = perOp(l.wscNS, l.wscReq)
	m["storage.sim_s"] = (l.sim - schedNS).Seconds()
	m["storage.requests"] = float64(l.requests)
	m["power.spin_ups"] = float64(l.spinUps)
	m["power.spin_downs"] = float64(l.spinDowns)
	covered := l.requestGen + l.placement + l.build + l.solve + l.sim
	m["trace.coverage_frac"] = covered.Seconds() / wall.Seconds()
}

func perOp(d time.Duration, n int64) float64 { return ratio(float64(d.Nanoseconds()), float64(n)) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
