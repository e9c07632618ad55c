package experiments

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/diskmodel"
	"repro/internal/dpm"
	"repro/internal/gear"
	"repro/internal/offline"
	"repro/internal/offload"
	"repro/internal/placement"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/storage"
)

// This file holds experiments beyond the paper's figures: the extensions
// its text sketches (write off-loading, Section 2.1; prediction-based
// costs, Section 3.3; HDFS-style placement, Section 7) and the
// complementary techniques its related work surveys (power-aware caching).
// cmd/figures -ext regenerates them.

// ExtensionOffload compares the heuristic scheduler with and without write
// off-loading across write fractions: off-loading keeps writes from waking
// sleeping home disks (Section 2.1's assumed mechanism, built in
// internal/offload).
func ExtensionOffload(s Scale, tr Trace) (*Table, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	base := tr.Requests(s)
	plc, err := makePlacement(s, 3, 1)
	if err != nil {
		return nil, err
	}
	cfg := storage.DefaultConfig()
	cfg.NumDisks = s.NumDisks
	cost := sched.DefaultCost(cfg.Power)

	t := &Table{
		Title: fmt.Sprintf("Extension: write off-loading at replication factor 3 (%s)", tr),
		Header: []string{"write fraction", "baseline energy", "off-load energy", "saving",
			"off-loaded writes", "forced wakes"},
	}
	for _, frac := range []float64{0.1, 0.3, 0.5} {
		reqs := offload.WithWrites(base, frac, s.Seed+3)
		baseline, err := storage.RunOnline(cfg, plc.Locations,
			sched.Heuristic{Locations: plc.Locations, Cost: cost}, reqs)
		if err != nil {
			return nil, err
		}
		m, err := offload.NewManager(plc.Locations, s.NumDisks)
		if err != nil {
			return nil, err
		}
		wrapped := offload.Scheduler{
			Manager: m,
			Reads:   sched.Heuristic{Locations: m.Locations, Cost: cost},
		}
		offloaded, err := storage.RunOnline(cfg, m.Locations, wrapped, reqs)
		if err != nil {
			return nil, err
		}
		st := m.Stats()
		t.AddRow(fmt.Sprintf("%.1f", frac),
			fmt.Sprintf("%.3f", baseline.NormalizedEnergy()),
			fmt.Sprintf("%.3f", offloaded.NormalizedEnergy()),
			fmt.Sprintf("%.1f%%", 100*(1-offloaded.Energy/baseline.Energy)),
			fmt.Sprint(st.Offloaded),
			fmt.Sprint(st.ForcedWakes))
	}
	return t, nil
}

// ExtensionCache compares LRU against power-aware eviction across cache
// sizes (the complementary technique of the paper's references 26/27).
func ExtensionCache(s Scale, tr Trace) (*Table, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	reqs := tr.Requests(s)
	plc, err := makePlacement(s, 3, 1)
	if err != nil {
		return nil, err
	}
	cfg := storage.DefaultConfig()
	cfg.NumDisks = s.NumDisks
	h := sched.Heuristic{Locations: plc.Locations, Cost: sched.DefaultCost(cfg.Power)}

	t := &Table{
		Title: fmt.Sprintf("Extension: block cache in front of the heuristic scheduler (%s, rf=3)", tr),
		Header: []string{"capacity (blocks)", "policy", "hit rate", "norm energy",
			"mean response", "standby evictions"},
	}
	uncached, err := storage.RunOnline(cfg, plc.Locations, h, reqs)
	if err != nil {
		return nil, err
	}
	t.AddRow("0", "none", "0.00", fmt.Sprintf("%.3f", uncached.NormalizedEnergy()),
		uncached.Response.Mean().Round(time.Millisecond).String(), "-")
	for _, capacity := range []int{s.NumBlocks / 100, s.NumBlocks / 20, s.NumBlocks / 5} {
		if capacity < 1 {
			capacity = 1
		}
		for _, pol := range []cache.Policy{cache.LRU, cache.PowerAware} {
			c, err := cache.New(capacity, pol, plc.Locations)
			if err != nil {
				return nil, err
			}
			res, err := storage.RunOnline(cfg, plc.Locations, h, reqs, storage.WithCache(c))
			if err != nil {
				return nil, err
			}
			st := c.Stats()
			t.AddRow(fmt.Sprint(capacity), pol.String(),
				fmt.Sprintf("%.2f", st.HitRate()),
				fmt.Sprintf("%.3f", res.NormalizedEnergy()),
				res.Response.Mean().Round(time.Millisecond).String(),
				fmt.Sprint(st.StandbyEvictions))
		}
	}
	return t, nil
}

// ExtensionRackAware compares the paper's uniform-replica layout against
// an HDFS-style rack-aware layout (the deployment target named in the
// conclusion) under the heuristic and WSC schedulers.
func ExtensionRackAware(s Scale, tr Trace) (*Table, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	reqs := tr.Requests(s)
	cfg := storage.DefaultConfig()
	cfg.NumDisks = s.NumDisks
	cost := sched.DefaultCost(cfg.Power)
	numRacks := s.NumDisks / 6
	if numRacks < 2 {
		numRacks = 2
	}

	t := &Table{
		Title:  fmt.Sprintf("Extension: uniform vs HDFS rack-aware replica placement (%s, %d racks)", tr, numRacks),
		Header: []string{"replication", "layout", "heuristic energy", "wsc energy"},
	}
	for _, rf := range []int{2, 3} {
		uniform, err := makePlacement(s, rf, 1)
		if err != nil {
			return nil, err
		}
		rack, err := placement.GenerateRackAware(placement.RackConfig{
			NumDisks: s.NumDisks, NumRacks: numRacks, NumBlocks: s.NumBlocks,
			ReplicationFactor: rf, ZipfExponent: 1, Seed: s.Seed + 7,
		})
		if err != nil {
			return nil, err
		}
		for _, layout := range []struct {
			name string
			plc  *placement.Placement
		}{{"uniform", uniform}, {"rack-aware", rack}} {
			hRes, err := storage.RunOnline(cfg, layout.plc.Locations,
				sched.Heuristic{Locations: layout.plc.Locations, Cost: cost}, reqs)
			if err != nil {
				return nil, err
			}
			wRes, err := storage.RunBatch(cfg, layout.plc.Locations,
				sched.WSC{Locations: layout.plc.Locations, Cost: cost}, reqs, s.BatchInterval)
			if err != nil {
				return nil, err
			}
			t.AddRow(fmt.Sprint(rf), layout.name,
				fmt.Sprintf("%.3f", hRes.NormalizedEnergy()),
				fmt.Sprintf("%.3f", wRes.NormalizedEnergy()))
		}
	}
	return t, nil
}

// ExtensionPredictive compares the online heuristic against the
// prediction-discounted variant of Section 3.3.
func ExtensionPredictive(s Scale, tr Trace) (*Table, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	reqs := tr.Requests(s)
	cfg := storage.DefaultConfig()
	cfg.NumDisks = s.NumDisks
	cost := sched.DefaultCost(cfg.Power)

	t := &Table{
		Title:  fmt.Sprintf("Extension: prediction-discounted cost function (%s)", tr),
		Header: []string{"replication", "heuristic energy", "predictive energy", "heuristic mean", "predictive mean"},
	}
	for _, rf := range []int{2, 3, 5} {
		plc, err := makePlacement(s, rf, 1)
		if err != nil {
			return nil, err
		}
		hRes, err := storage.RunOnline(cfg, plc.Locations,
			sched.Heuristic{Locations: plc.Locations, Cost: cost}, reqs)
		if err != nil {
			return nil, err
		}
		pred, err := sched.NewPredictive(plc.Locations, cost, 0.5, cfg.Power.Breakeven())
		if err != nil {
			return nil, err
		}
		pRes, err := storage.RunOnline(cfg, plc.Locations, pred, reqs)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(rf),
			fmt.Sprintf("%.3f", hRes.NormalizedEnergy()),
			fmt.Sprintf("%.3f", pRes.NormalizedEnergy()),
			hRes.Response.Mean().Round(time.Millisecond).String(),
			pRes.Response.Mean().Round(time.Millisecond).String())
	}
	return t, nil
}

// ExtensionDPM evaluates single-disk power-management policies on the
// per-disk idle-gap sequences induced by the static schedule: the analytic
// backdrop for the paper's 2CPM choice (Section 1). Each policy runs on
// each disk's own gap sequence, in DiskID order, and the per-disk energies
// are summed: an adaptive policy's history (EWMA) restarts per disk, as in
// the single-disk model.
func ExtensionDPM(s Scale, tr Trace) (*Table, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	reqs := tr.Requests(s)
	plc, err := makePlacement(s, 1, 1)
	if err != nil {
		return nil, err
	}
	pwr := storage.DefaultConfig().Power

	// Per-disk request times under static routing.
	perDisk := make([][]time.Duration, s.NumDisks)
	for _, r := range reqs {
		d := plc.Original(r.Block)
		perDisk[d] = append(perDisk[d], r.Arrival)
	}
	gaps := make([][]time.Duration, 0, len(perDisk))
	n := 0
	for _, times := range perDisk {
		slices.Sort(times)
		g := dpm.Gaps(times)
		gaps = append(gaps, g)
		n += len(g)
	}
	oracle := 0.0
	for _, g := range gaps {
		oracle += dpm.OracleCost(pwr, g)
	}

	t := &Table{
		Title: fmt.Sprintf("Extension: single-disk power-management policies over %d idle gaps (%s)",
			n, tr),
		Header: []string{"policy", "energy (J)", "vs oracle"},
	}
	t.AddRow("offline oracle", fmt.Sprintf("%.0f", oracle), "1.000")
	tau := dpm.OptimalThreshold(pwr)
	for _, p := range []dpm.GapPolicy{
		dpm.Fixed{Tau: tau},
		dpm.Fixed{Tau: tau / 4},
		dpm.Fixed{Tau: tau * 4},
		dpm.NeverSpinDown{},
		dpm.Immediate{},
		dpm.EWMAPredictive{Alpha: 0.5, Breakeven: tau},
	} {
		cost := 0.0
		for _, g := range gaps {
			cost += dpm.PolicyCost(pwr, g, p)
		}
		t.AddRow(p.Name(), fmt.Sprintf("%.0f", cost), fmt.Sprintf("%.3f", cost/oracle))
	}
	return t, nil
}

// ExtensionDiscipline compares disk queue disciplines under the heuristic
// scheduler at replication factor 3.
func ExtensionDiscipline(s Scale, tr Trace) (*Table, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	reqs := tr.Requests(s)
	plc, err := makePlacement(s, 3, 1)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Extension: disk queue disciplines (%s, rf=3, heuristic)", tr),
		Header: []string{"discipline", "norm energy", "mean response", "p99 response"},
	}
	for _, disc := range []diskmodel.Discipline{diskmodel.FIFO, diskmodel.SSTF, diskmodel.SCAN} {
		cfg := storage.DefaultConfig()
		cfg.NumDisks = s.NumDisks
		cfg.Discipline = disc
		res, err := storage.RunOnline(cfg, plc.Locations,
			sched.Heuristic{Locations: plc.Locations, Cost: sched.DefaultCost(cfg.Power)}, reqs)
		if err != nil {
			return nil, err
		}
		t.AddRow(disc.String(),
			fmt.Sprintf("%.3f", res.NormalizedEnergy()),
			res.Response.Mean().Round(time.Millisecond).String(),
			res.Response.Percentile(99).Round(time.Millisecond).String())
	}
	return t, nil
}

// Extensions runs every extension experiment, returning the tables in
// presentation order.
func Extensions(s Scale, tr Trace) ([]*Table, error) {
	type gen func(Scale, Trace) (*Table, error)
	var out []*Table
	for _, g := range []gen{
		ExtensionOffload, ExtensionCache, ExtensionRackAware,
		ExtensionPredictive, ExtensionDPM, ExtensionDiscipline,
		ExtensionGear, ExtensionFailures, ExtensionThreshold,
	} {
		t, err := g(s, tr)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// ExtensionGear compares the paper's replica-scheduling approach against a
// PARAID-style gear-shifting array (references [13]/[25]) on the same
// trace: gears use a coverage-constrained placement, the heuristic uses
// the paper's uniform-replica placement, both at replication factor 2.
func ExtensionGear(s Scale, tr Trace) (*Table, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	reqs := tr.Requests(s)
	cfg := storage.DefaultConfig()
	cfg.NumDisks = s.NumDisks

	t := &Table{
		Title:  fmt.Sprintf("Extension: gear-shifting (PARAID-style) vs energy-aware scheduling (%s, rf=2)", tr),
		Header: []string{"system", "norm energy", "spin-ups", "mean response"},
	}

	// Gear-shifting over its coverage placement.
	gearPlc, err := gear.GeneratePlacement(s.NumDisks, s.NumDisks/4+1, s.NumBlocks, 2, s.Seed+9)
	if err != nil {
		return nil, err
	}
	gm, err := gear.NewManager(gear.DefaultConfig(s.NumDisks), gearPlc.Locations)
	if err != nil {
		return nil, err
	}
	gearRes, err := storage.RunOnline(cfg, gearPlc.Locations, gm, reqs)
	if err != nil {
		return nil, err
	}
	t.AddRow("gear-shifting", fmt.Sprintf("%.3f", gearRes.NormalizedEnergy()),
		fmt.Sprint(gearRes.SpinUps), gearRes.Response.Mean().Round(time.Millisecond).String())

	// The paper's heuristic over the uniform-replica placement.
	plc, err := makePlacement(s, 2, 1)
	if err != nil {
		return nil, err
	}
	heurRes, err := storage.RunOnline(cfg, plc.Locations,
		sched.Heuristic{Locations: plc.Locations, Cost: sched.DefaultCost(cfg.Power)}, reqs)
	if err != nil {
		return nil, err
	}
	t.AddRow("energy-aware heuristic", fmt.Sprintf("%.3f", heurRes.NormalizedEnergy()),
		fmt.Sprint(heurRes.SpinUps), heurRes.Response.Mean().Round(time.Millisecond).String())

	// Gear manager routed through the heuristic's placement for an
	// apples-to-apples schedule comparison.
	gm2, err := gear.NewManager(gear.DefaultConfig(s.NumDisks), plc.Locations)
	if err != nil {
		return nil, err
	}
	mixed, err := storage.RunOnline(cfg, plc.Locations, gm2, reqs)
	if err != nil {
		return nil, err
	}
	t.AddRow("gear-shifting (uniform placement)", fmt.Sprintf("%.3f", mixed.NormalizedEnergy()),
		fmt.Sprint(mixed.SpinUps), mixed.Response.Mean().Round(time.Millisecond).String())
	return t, nil
}

// ExtensionFailures measures availability and energy under disk failures:
// a sweep over the number of simultaneously failed disks, reporting how
// replication absorbs outages (the fault-tolerance role the paper's
// scheduler piggybacks on).
func ExtensionFailures(s Scale, tr Trace) (*Table, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	reqs := tr.Requests(s)
	plc, err := makePlacement(s, 3, 1)
	if err != nil {
		return nil, err
	}
	cfg := storage.DefaultConfig()
	cfg.NumDisks = s.NumDisks
	h := sched.Heuristic{Locations: plc.Locations, Cost: sched.DefaultCost(cfg.Power)}
	horizon := offline.Horizon(reqs, cfg.Power)

	t := &Table{
		Title: fmt.Sprintf("Extension: disk failures under the heuristic scheduler (%s, rf=3, outage spans the whole trace)", tr),
		Header: []string{"failed disks", "served", "unavailable", "re-dispatched",
			"norm energy", "mean response"},
	}
	for _, failed := range []int{0, 1, 3, 9} {
		var events []storage.FailureEvent
		for d := 0; d < failed; d++ {
			events = append(events, storage.FailureEvent{
				Disk:     core.DiskID(d * (s.NumDisks / (failed + 1))),
				At:       time.Second,
				Duration: horizon,
			})
		}
		res, err := storage.RunOnline(cfg, plc.Locations, h, reqs, storage.WithFailures(events...))
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(failed),
			fmt.Sprint(res.Served),
			fmt.Sprint(res.Unavailable),
			fmt.Sprint(res.Redispatched),
			fmt.Sprintf("%.3f", res.NormalizedEnergy()),
			res.Response.Mean().Round(time.Millisecond).String())
	}
	return t, nil
}

// ExtensionThreshold ablates the power manager's idleness threshold around
// the 2CPM breakeven value: shorter thresholds spin down eagerly (more
// transitions, worse tails), longer ones idle away the savings. The paper
// fixes T_B = E_up/down / P_I; this sweep shows that choice is at the knee.
func ExtensionThreshold(s Scale, tr Trace) (*Table, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	reqs := tr.Requests(s)
	plc, err := makePlacement(s, 3, 1)
	if err != nil {
		return nil, err
	}
	base := storage.DefaultConfig()
	tb := base.Power.Breakeven()

	t := &Table{
		Title:  fmt.Sprintf("Extension: idleness-threshold ablation around T_B (%s, rf=3, heuristic)", tr),
		Header: []string{"threshold", "norm energy", "spin-ups", "mean response"},
	}
	for _, mult := range []float64{0.25, 0.5, 1, 2, 4} {
		cfg := base
		cfg.NumDisks = s.NumDisks
		cfg.Policy = power.FixedThreshold{Idle: time.Duration(float64(tb) * mult)}
		res, err := storage.RunOnline(cfg, plc.Locations,
			sched.Heuristic{Locations: plc.Locations, Cost: sched.DefaultCost(cfg.Power)}, reqs)
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("%.2fx T_B", mult)
		if mult == 1 {
			label = "T_B (2CPM)"
		}
		t.AddRow(label,
			fmt.Sprintf("%.3f", res.NormalizedEnergy()),
			fmt.Sprint(res.SpinUps),
			res.Response.Mean().Round(time.Millisecond).String())
	}
	// Always-on anchor.
	cfg := base
	cfg.NumDisks = s.NumDisks
	cfg.Policy = power.AlwaysOn{}
	cfg.InitialState = core.StateIdle
	res, err := storage.RunOnline(cfg, plc.Locations,
		sched.Heuristic{Locations: plc.Locations, Cost: sched.DefaultCost(cfg.Power)}, reqs)
	if err != nil {
		return nil, err
	}
	t.AddRow("always-on", fmt.Sprintf("%.3f", res.NormalizedEnergy()),
		fmt.Sprint(res.SpinUps), res.Response.Mean().Round(time.Millisecond).String())
	return t, nil
}
