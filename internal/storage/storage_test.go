package storage

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/diskmodel"
	"repro/internal/placement"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/workload"
)

func smallConfig(numDisks int) Config {
	p := power.DefaultConfig()
	return Config{
		NumDisks: numDisks,
		Power:    p,
		Mech:     diskmodel.Cheetah15K5(),
		Policy:   power.TwoCompetitive{Config: p},
	}
}

func smallWorkload(t *testing.T, numDisks, numBlocks, numReqs, rf int, seed int64) ([]core.Request, *placement.Placement) {
	t.Helper()
	p, err := placement.Generate(placement.GenerateConfig{
		NumDisks: numDisks, NumBlocks: numBlocks,
		ReplicationFactor: rf, ZipfExponent: 1, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs := workload.CelloLike(numReqs, numBlocks, seed)
	return reqs, p
}

func TestRunOnlineStaticBasics(t *testing.T) {
	t.Parallel()
	reqs, p := smallWorkload(t, 8, 50, 300, 2, 1)
	res, err := RunOnline(smallConfig(8), p.Locations, sched.Static{Locations: p.Locations}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != 300 || res.Dropped != 0 {
		t.Fatalf("served/dropped = %d/%d", res.Served, res.Dropped)
	}
	if res.Energy <= 0 {
		t.Error("no energy accounted")
	}
	if res.Response.Count() != 300 {
		t.Errorf("response samples = %d", res.Response.Count())
	}
	if res.SpinUps == 0 {
		t.Error("no spin-ups despite standby start")
	}
	if res.Scheduler != "static" {
		t.Errorf("scheduler name = %q", res.Scheduler)
	}
	// Per-disk accounted time must equal the horizon for every disk.
	for _, st := range res.PerDisk {
		if st.Total() != res.Horizon {
			t.Fatalf("disk %d accounted %v of horizon %v", st.Disk, st.Total(), res.Horizon)
		}
	}
	// Energy conservation: result total equals per-disk sum.
	sum := 0.0
	for _, st := range res.PerDisk {
		sum += st.Energy
	}
	if math.Abs(sum-res.Energy) > 1e-6 {
		t.Errorf("energy sum %v != total %v", sum, res.Energy)
	}
}

func TestRunOnline2CPMBeatsAlwaysOnBaseline(t *testing.T) {
	t.Parallel()
	reqs, p := smallWorkload(t, 10, 80, 400, 1, 2)
	res, err := RunOnline(smallConfig(10), p.Locations, sched.Static{Locations: p.Locations}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.NormalizedEnergy(); n >= 1 {
		t.Errorf("normalized energy = %.3f, want < 1 (2CPM must beat always-on)", n)
	}
}

func TestRunOnlineAlwaysOnPolicyMatchesBaselineEnergy(t *testing.T) {
	t.Parallel()
	reqs, p := smallWorkload(t, 6, 40, 200, 1, 3)
	cfg := smallConfig(6)
	cfg.Policy = power.AlwaysOn{}
	cfg.InitialState = core.StateIdle
	res, err := RunOnline(cfg, p.Locations, sched.Static{Locations: p.Locations}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	// All disks idle except brief active windows; energy should be within
	// a few percent of the analytic always-on baseline (active draws more
	// than idle, so slightly above).
	ratio := res.Energy / res.AlwaysOnEnergy
	if ratio < 1 || ratio > 1.05 {
		t.Errorf("always-on ratio = %.4f, want [1, 1.05]", ratio)
	}
	if res.SpinUps != 0 {
		t.Errorf("spin-ups = %d under always-on", res.SpinUps)
	}
}

func TestRunOnlineHeuristicSavesEnergyWithReplication(t *testing.T) {
	t.Parallel()
	reqs, p := smallWorkload(t, 12, 100, 600, 3, 4)
	cfg := smallConfig(12)
	static, err := RunOnline(cfg, p.Locations, sched.Static{Locations: p.Locations}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	// Use the pure-energy cost (alpha=1): at this small scale the paper's
	// balanced alpha=0.2 trades some energy back for response time; the
	// energy-dominance claim is only robust for the energy-only setting.
	h := sched.Heuristic{Locations: p.Locations, Cost: sched.CostConfig{Alpha: 1, Beta: 100, Power: cfg.Power}}
	heur, err := RunOnline(cfg, p.Locations, h, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if heur.Energy >= static.Energy {
		t.Errorf("heuristic energy %.0f J not below static %.0f J at rf=3", heur.Energy, static.Energy)
	}
}

func TestRunBatchWSC(t *testing.T) {
	t.Parallel()
	reqs, p := smallWorkload(t, 12, 100, 500, 3, 5)
	cfg := smallConfig(12)
	w := sched.WSC{Locations: p.Locations, Cost: sched.DefaultCost(cfg.Power)}
	res, err := RunBatch(cfg, p.Locations, w, reqs, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != 500 {
		t.Fatalf("served = %d", res.Served)
	}
	// Batch queueing delay: every response is at least the distance to its
	// batch boundary... at minimum positive and the mean should exceed the
	// bare service time.
	if res.Response.Mean() < time.Millisecond {
		t.Errorf("mean response %v implausibly small for batched scheduling", res.Response.Mean())
	}
}

// TestRunBatchWSCBeatsRandom runs the batch set-cover scheduler and the
// uniform-replica baseline over one Financial1-like stream: WSC must spend
// less energy.
func TestRunBatchWSCBeatsRandom(t *testing.T) {
	t.Parallel()
	p, err := placement.Generate(placement.GenerateConfig{
		NumDisks: 16, NumBlocks: 1000, ReplicationFactor: 3, ZipfExponent: 1, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs := workload.FinancialLike(2000, 1000, 3)
	cfg := smallConfig(16)
	wsc, err := RunBatch(cfg, p.Locations,
		sched.WSC{Locations: p.Locations, Cost: sched.DefaultCost(cfg.Power)}, reqs, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := RunOnline(cfg, p.Locations, sched.NewRandom(p.Locations, 5), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if wsc.Energy >= rnd.Energy {
		t.Errorf("WSC energy %.0f not below random %.0f", wsc.Energy, rnd.Energy)
	}
}

// TestRunOnlinePredictiveServesAll runs the frequency-discounted
// predictive scheduler through the simulator: every request is served.
func TestRunOnlinePredictiveServesAll(t *testing.T) {
	t.Parallel()
	reqs, p := smallWorkload(t, 16, 1000, 2000, 3, 8)
	cfg := smallConfig(16)
	ps, err := sched.NewPredictive(p.Locations, sched.DefaultCost(cfg.Power), 0.5, cfg.Power.Breakeven())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunOnline(cfg, p.Locations, ps, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != 2000 {
		t.Errorf("served %d of 2000", res.Served)
	}
}

func TestRunBatchRejectsBadInterval(t *testing.T) {
	t.Parallel()
	_, p := smallWorkload(t, 4, 10, 10, 1, 6)
	w := sched.WSC{Locations: p.Locations, Cost: sched.DefaultCost(power.DefaultConfig())}
	if _, err := RunBatch(smallConfig(4), p.Locations, w, nil, 0); err == nil {
		t.Error("accepted zero interval")
	}
}

func TestRunOnlineNilArguments(t *testing.T) {
	t.Parallel()
	if _, err := RunOnline(smallConfig(2), nil, nil, nil); err == nil {
		t.Error("accepted nil scheduler")
	}
}

func TestRunOnlineRejectsInvalidConfig(t *testing.T) {
	t.Parallel()
	cfg := smallConfig(0)
	_, p := smallWorkload(t, 2, 5, 5, 1, 7)
	if _, err := RunOnline(cfg, p.Locations, sched.Static{Locations: p.Locations}, nil); err == nil {
		t.Error("accepted zero disks")
	}
}

func TestRunOnlineDropsUnplacedBlocks(t *testing.T) {
	t.Parallel()
	loc := func(b core.BlockID) []core.DiskID {
		if b == 0 {
			return nil
		}
		return []core.DiskID{0}
	}
	reqs := []core.Request{
		{ID: 0, Block: 0, Arrival: 0},
		{ID: 1, Block: 1, Arrival: time.Second},
	}
	res, err := RunOnline(smallConfig(2), loc, sched.Static{Locations: loc}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != 1 || res.Served != 1 {
		t.Errorf("dropped/served = %d/%d, want 1/1", res.Dropped, res.Served)
	}
}

// offRealer always returns a disk that is not a replica location.
type offReplica struct{}

func (offReplica) Name() string { return "off-replica" }
func (offReplica) Schedule(core.Request, sched.View) core.DiskID {
	return 1
}

func TestRunOnlineDetectsOffReplicaScheduler(t *testing.T) {
	t.Parallel()
	loc := func(core.BlockID) []core.DiskID { return []core.DiskID{0} }
	reqs := []core.Request{{ID: 0, Block: 0}}
	if _, err := RunOnline(smallConfig(2), loc, offReplica{}, reqs); err == nil {
		t.Error("off-replica scheduling not detected")
	}
}

func TestRunOnlinePrecomputedMWISPipeline(t *testing.T) {
	t.Parallel()
	// Wrap an arbitrary (static) precomputed schedule and check the system
	// honors it exactly.
	loc := func(b core.BlockID) []core.DiskID { return []core.DiskID{core.DiskID(b % 3), core.DiskID((b + 1) % 3)} }
	reqs := []core.Request{
		{ID: 0, Block: 0, Arrival: 0},
		{ID: 1, Block: 1, Arrival: time.Second},
		{ID: 2, Block: 2, Arrival: 2 * time.Second},
	}
	assign := core.Schedule{1, 1, 2}
	res, err := RunOnline(smallConfig(3), loc, sched.Precomputed{Assignments: assign}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerDisk[0].Served != 0 || res.PerDisk[1].Served != 2 || res.PerDisk[2].Served != 1 {
		t.Errorf("served per disk = %d/%d/%d, want 0/2/1",
			res.PerDisk[0].Served, res.PerDisk[1].Served, res.PerDisk[2].Served)
	}
}

func TestBatchQueueingDelayExceedsOnline(t *testing.T) {
	t.Parallel()
	// Figure 8's explanation: WSC response > Heuristic response because of
	// the batch interval. Compare the same cost function online vs batched.
	reqs, p := smallWorkload(t, 12, 100, 500, 3, 8)
	cfg := smallConfig(12)
	cost := sched.DefaultCost(cfg.Power)
	on, err := RunOnline(cfg, p.Locations, sched.Heuristic{Locations: p.Locations, Cost: cost}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := RunBatch(cfg, p.Locations, sched.WSC{Locations: p.Locations, Cost: cost}, reqs, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// Batch p50 should exceed online p50 by roughly the queueing delay.
	if ba.Response.Percentile(50) <= on.Response.Percentile(50) {
		t.Errorf("batch p50 %v not above online p50 %v",
			ba.Response.Percentile(50), on.Response.Percentile(50))
	}
}

func TestDefaultConfigMatchesPaperSetup(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	if cfg.NumDisks != 180 {
		t.Errorf("NumDisks = %d, want 180 (Section 4.2)", cfg.NumDisks)
	}
	if cfg.Policy == nil || cfg.Policy.Name() != "2CPM" {
		t.Errorf("policy = %v, want 2CPM", cfg.Policy)
	}
	if err := cfg.validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

// lateScheduler sends everything to one slow disk so queued work outlives
// the nominal horizon, exercising finish()'s drain path.
func TestFinishDrainsLateCompletions(t *testing.T) {
	t.Parallel()
	loc := func(core.BlockID) []core.DiskID { return []core.DiskID{0} }
	// A big burst at the very end of the trace: service continues past
	// lastArrival + T_B + T_up + T_down.
	var reqs []core.Request
	for i := 0; i < 2000; i++ {
		reqs = append(reqs, core.Request{ID: core.RequestID(i), Block: 0, LBA: int64(i) * 7919, Arrival: time.Second})
	}
	res, err := RunOnline(smallConfig(1), loc, sched.Static{Locations: loc}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != 2000 {
		t.Fatalf("served = %d", res.Served)
	}
	// 2000 requests at ~6ms each ≈ 12s of service from t≈11s; horizon must
	// cover the drain plus trailing spin-down.
	if res.Horizon < 15*time.Second {
		t.Errorf("horizon = %v, want beyond the drain", res.Horizon)
	}
	for _, st := range res.PerDisk {
		if st.Total() != res.Horizon {
			t.Errorf("disk accounted %v of %v", st.Total(), res.Horizon)
		}
	}
}

func TestWithStateLogStreamsTransitions(t *testing.T) {
	t.Parallel()
	loc := func(core.BlockID) []core.DiskID { return []core.DiskID{0} }
	reqs := []core.Request{{ID: 0, Block: 0, Arrival: time.Second}}
	var buf strings.Builder
	res, err := RunOnline(smallConfig(1), loc, sched.Static{Locations: loc}, reqs,
		WithStateLog(&buf))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// standby->spin-up, spin-up->idle, idle->active, active->idle,
	// idle->spin-down; the spin-down completes just past the accounting
	// horizon (service time pushed the cycle back), so its final
	// transition is not logged.
	if len(lines) != 5 {
		t.Fatalf("logged %d transitions, want 5:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], ",0,standby,spin-up") {
		t.Errorf("first transition = %q", lines[0])
	}
	if !strings.HasSuffix(lines[len(lines)-1], "idle,spin-down") {
		t.Errorf("last transition = %q", lines[len(lines)-1])
	}
	if res.Served != 1 {
		t.Errorf("served = %d", res.Served)
	}
}
