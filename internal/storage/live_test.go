package storage

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
)

// runLive feeds reqs through a Live system one at a time, deciding each
// with sc.
func runLive(t *testing.T, cfg Config, loc sched.Locator, sc sched.Online, reqs []core.Request) *Result {
	t.Helper()
	lv, err := NewLive(cfg, loc)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		lv.Advance(r.Arrival)
		lv.Arrive(r)
		d, dec := lv.Decide(sc, r)
		lv.Deliver(r, d, dec)
	}
	res, err := lv.Finish(sc.Name())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestLiveArrivalTieMatchesRunOnline is the arrival-tie regression: on one
// disk, a second request arrives at exactly the first one's completion
// plus the 2CPM threshold, the instant the idle timeout fires. RunOnline
// delivers the arrival first (preloaded arrivals are scheduled before any
// disk timer), so the disk serves it idle with one spin-up; Live must
// order the tie the same way rather than spin the disk down and up again.
func TestLiveArrivalTieMatchesRunOnline(t *testing.T) {
	t.Parallel()
	cfg := smallConfig(1)
	loc := func(core.BlockID) []core.DiskID { return []core.DiskID{0} }
	sc := sched.Static{Locations: loc}
	reqs := []core.Request{{ID: 0, Block: 0}}
	first, err := RunOnline(cfg, loc, sc, reqs)
	if err != nil {
		t.Fatal(err)
	}
	reqs = append(reqs, core.Request{ID: 1, Block: 0, Arrival: first.Response.Max() + cfg.Power.Breakeven()})
	sim, err := RunOnline(cfg, loc, sc, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if sim.SpinUps != 1 {
		t.Fatalf("RunOnline: %d spin-ups, want 1 (the tied arrival finds the disk idle)", sim.SpinUps)
	}
	live := runLive(t, cfg, loc, sc, reqs)
	if live.Energy != sim.Energy || live.SpinUps != sim.SpinUps || live.SpinDowns != sim.SpinDowns {
		t.Errorf("Live %.3f J, %d/%d spin-ups/downs; RunOnline %.3f J, %d/%d",
			live.Energy, live.SpinUps, live.SpinDowns, sim.Energy, sim.SpinUps, sim.SpinDowns)
	}
	a, _ := json.Marshal(live.Response)
	b, _ := json.Marshal(sim.Response)
	if !bytes.Equal(a, b) {
		t.Errorf("response samples: Live %s, RunOnline %s", a, b)
	}
	if live.Horizon != sim.Horizon {
		t.Errorf("horizon: Live %v, RunOnline %v", live.Horizon, sim.Horizon)
	}
}

// TestLiveFinishWithoutArrivals pins the horizon rule on an empty stream:
// the run still settles to the accounting horizon of an arrival at 0, so
// the always-on baseline is positive and the normalized energy finite.
// RunOnline and RunBatch on an empty trace must settle to the same Result.
func TestLiveFinishWithoutArrivals(t *testing.T) {
	t.Parallel()
	cfg := smallConfig(3)
	loc := func(core.BlockID) []core.DiskID { return []core.DiskID{0} }
	sc := sched.Static{Locations: loc}
	res := runLive(t, cfg, loc, sc, nil)
	want := cfg.Power.Breakeven() + cfg.Power.SpinUpTime + cfg.Power.SpinDownTime
	if n := res.NormalizedEnergy(); res.Horizon != want || n <= 0 || math.IsInf(n, 0) || math.IsNaN(n) {
		t.Fatalf("horizon %v (want %v), normalized energy %v", res.Horizon, want, n)
	}
	online, err := RunOnline(cfg, loc, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := RunBatch(cfg, loc, sched.WSC{Locations: loc, Cost: sched.DefaultCost(cfg.Power)}, nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, sim := range []*Result{online, batch} {
		got := *sim
		got.Scheduler = res.Scheduler
		if !reflect.DeepEqual(&got, res) {
			t.Errorf("%s on an empty trace: %+v, want the Live result %+v", sim.Scheduler, got, *res)
		}
	}
}
