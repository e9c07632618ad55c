package repro_test

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"repro"
)

// The paper's worked example (Figures 2-4): four disks, six requests, the
// toy power model. The exact MWIS pipeline recovers the optimal offline
// schedule with energy 19.
func ExampleSolveOfflineExact() {
	plc, err := repro.NewPlacement(4, [][]repro.DiskID{
		{0},       // b1 on d1
		{0, 1},    // b2 on d1,d2
		{0, 1, 3}, // b3 on d1,d2,d4
		{2, 3},    // b4 on d3,d4
		{0, 3},    // b5 on d1,d4
		{2, 3},    // b6 on d3,d4
	})
	if err != nil {
		panic(err)
	}
	times := []time.Duration{0, time.Second, 3 * time.Second, 5 * time.Second, 12 * time.Second, 13 * time.Second}
	reqs := make([]repro.Request, 6)
	for i := range reqs {
		reqs[i] = repro.Request{ID: repro.RequestID(i), Block: repro.BlockID(i), Arrival: times[i]}
	}
	_, stats, err := repro.SolveOfflineExact(reqs, plc.Locations, repro.ToyPowerConfig())
	if err != nil {
		panic(err)
	}
	fmt.Printf("optimal offline energy: %.0f units\n", stats.Energy)
	// Output: optimal offline energy: 19 units
}

// Evaluating a hand-written schedule under the analytic offline model:
// schedule B of Figure 3 costs 23 units.
func ExampleEvaluateSchedule() {
	plc, _ := repro.NewPlacement(4, [][]repro.DiskID{
		{0}, {0, 1}, {0, 1, 3}, {2, 3}, {0, 3}, {2, 3},
	})
	times := []time.Duration{0, time.Second, 3 * time.Second, 5 * time.Second, 12 * time.Second, 13 * time.Second}
	reqs := make([]repro.Request, 6)
	for i := range reqs {
		reqs[i] = repro.Request{ID: repro.RequestID(i), Block: repro.BlockID(i), Arrival: times[i]}
	}
	scheduleB := repro.Schedule{0, 0, 0, 2, 0, 2}
	stats, err := repro.EvaluateSchedule(reqs, scheduleB, repro.ToyPowerConfig(), plc.Locations)
	if err != nil {
		panic(err)
	}
	fmt.Printf("schedule B energy: %.0f units\n", stats.Energy)
	// Output: schedule B energy: 23 units
}

// Running the full event-driven simulator with the energy-aware online
// scheduler. This is the README's quick start.
func ExampleRunOnline() {
	plc, err := repro.GeneratePlacement(repro.PlacementConfig{
		NumDisks: 12, NumBlocks: 500, ReplicationFactor: 3, ZipfExponent: 1, Seed: 1,
	})
	if err != nil {
		panic(err)
	}
	reqs := repro.CelloLike(1000, 500, 1)
	cfg := repro.DefaultSystemConfig() // Cheetah mechanics, 2CPM
	cfg.NumDisks = 12
	res, err := repro.RunOnline(cfg, plc.Locations,
		repro.NewHeuristicScheduler(plc.Locations, repro.DefaultCost(cfg.Power)), reqs)
	if err != nil {
		panic(err)
	}
	fmt.Printf("served %d requests, energy below always-on: %v\n",
		res.Served, res.NormalizedEnergy() < 1)
	// Output: served 1000 requests, energy below always-on: true
}

// The breakeven threshold of the default power model, the quantity 2CPM is
// built on.
func ExamplePowerConfig() {
	cfg := repro.DefaultPowerConfig()
	fmt.Printf("T_B = E_up/down / P_I = %.0f J / %.1f W = %.1f s\n",
		cfg.UpDownEnergy(), cfg.IdlePower, cfg.Breakeven().Seconds())
	// Output: T_B = E_up/down / P_I = 148 J / 9.3 W = 15.9 s
}

// Single-disk power management: the fixed breakeven threshold is
// 2-competitive against the offline oracle.
func ExampleCompetitiveRatio() {
	cfg := repro.DefaultPowerConfig()
	tau := repro.OptimalGapThreshold(cfg)
	// The adversarial gap: just past the threshold.
	gaps := []time.Duration{tau + time.Millisecond}
	ratio := repro.CompetitiveRatio(cfg, gaps, repro.FixedGapPolicy(tau))
	fmt.Printf("worst-case ratio <= 2: %v\n", ratio <= 2)
	// Output: worst-case ratio <= 2: true
}

// smallSystem is ExampleRunOnline's 12-disk system and 1,000-request
// Cello-like stream.
func smallSystem() (*repro.Placement, repro.SystemConfig, []repro.Request) {
	plc, err := repro.GeneratePlacement(repro.PlacementConfig{
		NumDisks: 12, NumBlocks: 500, ReplicationFactor: 3, ZipfExponent: 1, Seed: 1,
	})
	if err != nil {
		panic(err)
	}
	cfg := repro.DefaultSystemConfig()
	cfg.NumDisks = 12
	return plc, cfg, repro.CelloLike(1000, 500, 1)
}

// Tracing a run: the tracer records the request lifecycle, the traced
// scheduler adds one decision event per placement, and the collector
// exports the run's metric catalog in the Prometheus text format. The
// default ring holds 65,536 events, enough for this run's whole log.
func ExampleNewTracer() {
	plc, cfg, reqs := smallSystem()
	tr := repro.NewTracer(0) // flight recorder, default ring
	c := repro.NewCollector()
	_, err := repro.RunOnline(cfg, plc.Locations,
		repro.NewTracedHeuristicScheduler(plc.Locations, repro.DefaultCost(cfg.Power), tr), // decision events
		reqs, repro.WithTracer(tr), repro.WithCollector(c))
	if err != nil {
		panic(err)
	}
	var log, metrics bytes.Buffer
	if err := tr.WriteJSONL(&log); err != nil { // drain the ring
		panic(err)
	}
	if _, err := c.WriteTo(&metrics); err != nil { // Prometheus text snapshot
		panic(err)
	}
	fmt.Println("decision events:", strings.Count(log.String(), `"kind":"decision"`))
	for _, line := range strings.Split(metrics.String(), "\n") {
		if strings.HasPrefix(line, "esched_scheduler_decisions_total ") {
			fmt.Println(line)
		}
	}
	// Output:
	// decision events: 1000
	// esched_scheduler_decisions_total 1000
}

// Checking a live run against the runtime invariants: power-state
// legality, bit-exact energy conservation, request conservation, replica
// validity, 2CPM threshold compliance and latency sanity.
func ExampleNewDoctor() {
	plc, cfg, reqs := smallSystem()
	suite := repro.NewDoctor(repro.DoctorConfig{Power: cfg.Power, Mech: cfg.Mech,
		Policy: cfg.Policy, Locations: plc.Locations})
	s := repro.NewHeuristicScheduler(plc.Locations, repro.DefaultCost(cfg.Power))
	if _, err := repro.RunOnline(cfg, plc.Locations, s, reqs, repro.WithDoctor(suite)); err != nil {
		panic(err)
	}
	fmt.Printf("doctor passed: %v, violations: %d\n", suite.Passed(), len(suite.Violations()))
	// Output: doctor passed: true, violations: 0
}
