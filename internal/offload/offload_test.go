package offload

import (
	"math"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/diskmodel"
	"repro/internal/placement"
	"repro/internal/sched"
	"repro/internal/storage"
	"repro/internal/workload"
)

// fakeView mirrors the one in package sched's tests.
type fakeView struct {
	now    time.Duration
	states map[core.DiskID]core.DiskState
	loads  map[core.DiskID]int
}

func (f *fakeView) Now() time.Duration { return f.now }
func (f *fakeView) DiskState(d core.DiskID) core.DiskState {
	if s, ok := f.states[d]; ok {
		return s
	}
	return core.StateStandby
}
func (f *fakeView) Load(d core.DiskID) int                            { return f.loads[d] }
func (f *fakeView) LastRequestTime(core.DiskID) (time.Duration, bool) { return 0, false }

func homeLoc(b core.BlockID) []core.DiskID {
	return [][]core.DiskID{{0, 1}, {2}}[b]
}

func newManager(t *testing.T) *Manager {
	t.Helper()
	m, err := NewManager(homeLoc, 4)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewManagerValidation(t *testing.T) {
	t.Parallel()
	if _, err := NewManager(nil, 4); err == nil {
		t.Error("accepted nil locator")
	}
	if _, err := NewManager(homeLoc, 0); err == nil {
		t.Error("accepted zero disks")
	}
}

func TestRouteWritePrefersSpinningHome(t *testing.T) {
	t.Parallel()
	m := newManager(t)
	v := &fakeView{states: map[core.DiskID]core.DiskState{
		0: core.StateStandby,
		1: core.StateIdle, // second home replica is up
		3: core.StateIdle, // a foreign disk is also up
	}}
	d := m.RouteWrite(core.Request{ID: 0, Block: 0, Write: true}, v)
	if d != 1 {
		t.Errorf("write routed to %v, want spinning home replica 1", d)
	}
	if m.OffloadedBlocks() != 0 {
		t.Error("home write left the block marked off-loaded")
	}
	if st := m.Stats(); st.HomeWrites != 1 || st.Offloaded != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRouteWriteOffloadsToLeastLoadedSpinningDisk(t *testing.T) {
	t.Parallel()
	m := newManager(t)
	v := &fakeView{
		states: map[core.DiskID]core.DiskState{
			// Homes 0 and 1 asleep; foreign disks 2 and 3 spinning.
			2: core.StateActive,
			3: core.StateIdle,
		},
		loads: map[core.DiskID]int{2: 5, 3: 0},
	}
	d := m.RouteWrite(core.Request{ID: 0, Block: 0, Write: true}, v)
	if d != 3 {
		t.Errorf("write routed to %v, want least-loaded spinning disk 3", d)
	}
	// Reads of the block must now follow it to the holder.
	if got := m.Locations(0); len(got) != 1 || got[0] != 3 {
		t.Errorf("Locations after offload = %v, want [3]", got)
	}
	if m.OffloadedBlocks() != 1 {
		t.Errorf("offloaded blocks = %d", m.OffloadedBlocks())
	}
}

func TestRouteWriteForcedWakeWhenAllAsleep(t *testing.T) {
	t.Parallel()
	m := newManager(t)
	v := &fakeView{} // everything standby
	d := m.RouteWrite(core.Request{ID: 0, Block: 0, Write: true}, v)
	if d != 0 {
		t.Errorf("write routed to %v, want home 0", d)
	}
	if st := m.Stats(); st.ForcedWakes != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRouteWritePanicsOnRead(t *testing.T) {
	t.Parallel()
	m := newManager(t)
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	m.RouteWrite(core.Request{Block: 0}, &fakeView{})
}

func TestReclaimRestoresHomeLocations(t *testing.T) {
	t.Parallel()
	m := newManager(t)
	asleep := &fakeView{states: map[core.DiskID]core.DiskState{3: core.StateIdle}}
	if d := m.RouteWrite(core.Request{Block: 0, Write: true}, asleep); d != 3 {
		t.Fatalf("offload went to %v", d)
	}
	// Home still asleep: reclaim is a no-op.
	if n := m.ReclaimSpinning(asleep); n != 0 {
		t.Fatalf("reclaimed %d with home asleep", n)
	}
	// Home wakes: the block returns home.
	awake := &fakeView{states: map[core.DiskID]core.DiskState{0: core.StateIdle, 3: core.StateIdle}}
	if n := m.ReclaimSpinning(awake); n != 1 {
		t.Fatalf("reclaimed %d, want 1", n)
	}
	if got := m.Locations(0); len(got) != 2 || got[0] != 0 {
		t.Errorf("Locations after reclaim = %v, want home replicas", got)
	}
	if m.OffloadedBlocks() != 0 {
		t.Error("block still marked off-loaded after reclaim")
	}
}

func TestHomeWriteSupersedesOffloadedCopy(t *testing.T) {
	t.Parallel()
	m := newManager(t)
	asleep := &fakeView{states: map[core.DiskID]core.DiskState{3: core.StateIdle}}
	m.RouteWrite(core.Request{Block: 0, Write: true}, asleep)
	// A later write while home is up drops the stale off-loaded copy.
	awake := &fakeView{states: map[core.DiskID]core.DiskState{0: core.StateIdle, 3: core.StateIdle}}
	if d := m.RouteWrite(core.Request{Block: 0, Write: true}, awake); d != 0 {
		t.Fatalf("home write routed to %v", d)
	}
	if m.OffloadedBlocks() != 0 {
		t.Error("stale off-loaded copy survived a home write")
	}
}

func TestSchedulerSplitsReadsAndWrites(t *testing.T) {
	t.Parallel()
	m := newManager(t)
	inner := sched.Static{Locations: m.Locations}
	s := Scheduler{Manager: m, Reads: inner}
	if name := s.Name(); name != "static + write off-loading" {
		t.Errorf("Name = %q", name)
	}
	v := &fakeView{states: map[core.DiskID]core.DiskState{3: core.StateIdle}}
	// Write to sleeping home: off-loaded to disk 3.
	if d := s.Schedule(core.Request{ID: 0, Block: 0, Write: true}, v); d != 3 {
		t.Fatalf("write -> %v, want 3", d)
	}
	// Read of the off-loaded block follows it.
	if d := s.Schedule(core.Request{ID: 1, Block: 0}, v); d != 3 {
		t.Fatalf("read of off-loaded block -> %v, want 3", d)
	}
	// Read of an untouched block goes to its home.
	if d := s.Schedule(core.Request{ID: 2, Block: 1}, v); d != 2 {
		t.Fatalf("read -> %v, want home 2", d)
	}
}

func TestWithWrites(t *testing.T) {
	t.Parallel()
	reqs := workload.CelloLike(4000, 1000, 1)
	mixed := WithWrites(reqs, 0.3, 9)
	writes := 0
	for i, r := range mixed {
		if r.Write {
			writes++
		}
		if r.ID != reqs[i].ID || r.Block != reqs[i].Block {
			t.Fatal("WithWrites mutated request identity")
		}
	}
	frac := float64(writes) / float64(len(mixed))
	if math.Abs(frac-0.3) > 0.03 {
		t.Errorf("write fraction = %.3f, want ~0.3", frac)
	}
	// Deterministic for a seed, input untouched.
	again := WithWrites(reqs, 0.3, 9)
	for i := range mixed {
		if mixed[i].Write != again[i].Write {
			t.Fatal("WithWrites not deterministic")
		}
	}
	for _, r := range reqs {
		if r.Write {
			t.Fatal("WithWrites mutated its input")
		}
	}
}

func TestWithWritesPanicsOnBadFraction(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	WithWrites(nil, 1.5, 1)
}

// Integration: on a mixed workload, off-loading writes saves energy over
// sending every write to its (often sleeping) home disk.
func TestOffloadingSavesEnergyOnMixedWorkload(t *testing.T) {
	t.Parallel()
	plc, err := placement.Generate(placement.GenerateConfig{
		NumDisks: 16, NumBlocks: 1200, ReplicationFactor: 2, ZipfExponent: 1, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs := WithWrites(workload.CelloLike(5000, 1200, 4), 0.4, 4)
	cfg := storage.DefaultConfig()
	cfg.NumDisks = 16
	cost := sched.DefaultCost(cfg.Power)

	// Baseline: writes treated like reads by the heuristic over home
	// replicas only.
	baseline, err := storage.RunOnline(cfg, plc.Locations,
		sched.Heuristic{Locations: plc.Locations, Cost: cost}, reqs)
	if err != nil {
		t.Fatal(err)
	}

	m, err := NewManager(plc.Locations, 16)
	if err != nil {
		t.Fatal(err)
	}
	wrapped := Scheduler{
		Manager: m,
		Reads:   sched.Heuristic{Locations: m.Locations, Cost: cost},
	}
	offloaded, err := storage.RunOnline(cfg, m.Locations, wrapped, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if offloaded.Energy >= baseline.Energy {
		t.Errorf("off-loading energy %.0f J not below baseline %.0f J", offloaded.Energy, baseline.Energy)
	}
	st := m.Stats()
	if st.Writes == 0 || st.Offloaded == 0 {
		t.Errorf("no off-loading activity: %+v", st)
	}
	if st.Writes != 0 && st.HomeWrites+st.Offloaded+st.ForcedWakes != st.Writes {
		t.Errorf("write accounting inconsistent: %+v", st)
	}
}

// The three layers in front of the disks compose in one run: writes go
// through the off-load manager, reads through the power-aware cache and
// then the heuristic over the manager's live locations, and each disk
// serves its queue shortest-seek-first.
func TestOffloadComposesWithCacheAndSSTF(t *testing.T) {
	t.Parallel()
	plc, err := placement.Generate(placement.GenerateConfig{
		NumDisks: 16, NumBlocks: 1000, ReplicationFactor: 3, ZipfExponent: 1, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs := WithWrites(workload.CelloLike(2500, 1000, 7), 0.3, 7)
	cfg := storage.DefaultConfig()
	cfg.NumDisks = 16
	cfg.Discipline = diskmodel.SSTF

	m, err := NewManager(plc.Locations, 16)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.New(100, cache.PowerAware, m.Locations)
	if err != nil {
		t.Fatal(err)
	}
	s := Scheduler{Manager: m, Reads: sched.Heuristic{Locations: m.Locations, Cost: sched.DefaultCost(cfg.Power)}}
	res, err := storage.RunOnline(cfg, m.Locations, s, reqs, storage.WithCache(c))
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != 2500 {
		t.Errorf("served %d", res.Served)
	}
	if m.Stats().Writes == 0 {
		t.Error("no writes routed")
	}
	if c.Stats().Hits == 0 {
		t.Error("no cache hits")
	}
}
