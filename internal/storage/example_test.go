package storage_test

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/monitor"
	"repro/internal/placement"
	"repro/internal/sched"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Running the full event-driven simulator with the energy-aware online
// scheduler. This is the README's quick start.
func ExampleRunOnline() {
	plc, err := placement.Generate(placement.GenerateConfig{
		NumDisks: 12, NumBlocks: 500, ReplicationFactor: 3, ZipfExponent: 1, Seed: 1,
	})
	if err != nil {
		panic(err)
	}
	reqs := workload.CelloLike(1000, 500, 1)
	cfg := storage.DefaultConfig() // Cheetah mechanics, 2CPM
	cfg.NumDisks = 12
	res, err := storage.RunOnline(cfg, plc.Locations,
		sched.Heuristic{Locations: plc.Locations, Cost: sched.DefaultCost(cfg.Power)}, reqs)
	if err != nil {
		panic(err)
	}
	fmt.Printf("served %d requests, energy below always-on: %v\n",
		res.Served, res.NormalizedEnergy() < 1)
	// Output: served 1000 requests, energy below always-on: true
}

// smallSystem is ExampleRunOnline's 12-disk system and 1,000-request
// Cello-like stream.
func smallSystem() (*placement.Placement, storage.Config, []core.Request) {
	plc, err := placement.Generate(placement.GenerateConfig{
		NumDisks: 12, NumBlocks: 500, ReplicationFactor: 3, ZipfExponent: 1, Seed: 1,
	})
	if err != nil {
		panic(err)
	}
	cfg := storage.DefaultConfig()
	cfg.NumDisks = 12
	return plc, cfg, workload.CelloLike(1000, 500, 1)
}

// Tracing a run: the tracer records the request lifecycle, the traced
// scheduler adds one decision event per placement, and the collector
// exports the run's metric catalog in the Prometheus text format. The
// default ring holds 65,536 events, enough for this run's whole log.
func ExampleWithTracer() {
	plc, cfg, reqs := smallSystem()
	tr := obs.NewTracer(0) // flight recorder, default ring
	c := obs.NewCollector()
	h := sched.Heuristic{Locations: plc.Locations, Cost: sched.DefaultCost(cfg.Power), Tracer: tr} // decision events
	_, err := storage.RunOnline(cfg, plc.Locations, h, reqs,
		storage.WithTracer(tr), storage.WithCollector(c))
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

// Checking a live run against the runtime invariants (the doctor):
// power-state legality, bit-exact energy conservation, request
// conservation, replica validity, 2CPM threshold compliance and latency
// sanity.
func ExampleWithMonitor() {
	plc, cfg, reqs := smallSystem()
	suite := monitor.NewSuite(monitor.Config{Power: cfg.Power, Mech: cfg.Mech,
		Policy: cfg.Policy, Locations: plc.Locations})
	s := sched.Heuristic{Locations: plc.Locations, Cost: sched.DefaultCost(cfg.Power)}
	if _, err := storage.RunOnline(cfg, plc.Locations, s, reqs, storage.WithMonitor(suite)); err != nil {
		panic(err)
	}
	fmt.Printf("doctor passed: %v, violations: %d\n", suite.Passed(), len(suite.Violations()))
	// Output: doctor passed: true, violations: 0
}
