package repro

import (
	"bytes"
	"math"
	"testing"
	"time"
)

// These tests exercise the public facade end-to-end: everything a
// downstream user touches without reaching into internal packages.

func examplePlacement(t *testing.T) *Placement {
	t.Helper()
	plc, err := GeneratePlacement(PlacementConfig{
		NumDisks: 16, NumBlocks: 1000, ReplicationFactor: 3, ZipfExponent: 1, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return plc
}

func TestFacadeQuickstartFlow(t *testing.T) {
	t.Parallel()
	plc := examplePlacement(t)
	reqs := CelloLike(3000, 1000, 2)
	cfg := DefaultSystemConfig()
	cfg.NumDisks = 16

	static, err := RunOnline(cfg, plc.Locations, NewStaticScheduler(plc.Locations), reqs)
	if err != nil {
		t.Fatal(err)
	}
	heur, err := RunOnline(cfg, plc.Locations,
		NewHeuristicScheduler(plc.Locations, DefaultCost(cfg.Power)), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if heur.NormalizedEnergy() <= 0 || heur.NormalizedEnergy() >= 1 {
		t.Errorf("normalized energy = %v", heur.NormalizedEnergy())
	}
	if static.Served != 3000 || heur.Served != 3000 {
		t.Errorf("served = %d/%d", static.Served, heur.Served)
	}
}

func TestFacadeBatchAndRandom(t *testing.T) {
	t.Parallel()
	plc := examplePlacement(t)
	reqs := FinancialLike(2000, 1000, 3)
	cfg := DefaultSystemConfig()
	cfg.NumDisks = 16
	wsc, err := RunBatch(cfg, plc.Locations,
		NewWSCScheduler(plc.Locations, DefaultCost(cfg.Power)), reqs, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := RunOnline(cfg, plc.Locations, NewRandomScheduler(plc.Locations, 5), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if wsc.Energy >= rnd.Energy {
		t.Errorf("WSC energy %.0f not below random %.0f", wsc.Energy, rnd.Energy)
	}
}

func TestFacadeOfflinePipeline(t *testing.T) {
	t.Parallel()
	plc := examplePlacement(t)
	reqs := CelloLike(1500, 1000, 4)
	cfg := DefaultPowerConfig()
	schedule, st, err := SolveOffline(reqs, plc.Locations, cfg, OfflineOptions{MaxSuccessors: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !schedule.Valid(reqs, plc.Locations) {
		t.Fatal("offline schedule invalid")
	}
	if st.Energy <= 0 || st.DisksUsed == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFacadeEvaluateScheduleWorkedExample(t *testing.T) {
	t.Parallel()
	plc, err := NewPlacement(4, [][]DiskID{
		{0}, {0, 1}, {0, 1, 3}, {2, 3}, {0, 3}, {2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	times := []time.Duration{0, time.Second, 3 * time.Second, 5 * time.Second, 12 * time.Second, 13 * time.Second}
	reqs := make([]Request, 6)
	for i := range reqs {
		reqs[i] = Request{ID: RequestID(i), Block: BlockID(i), Arrival: times[i]}
	}
	st, err := EvaluateSchedule(reqs, Schedule{0, 0, 0, 2, 3, 3}, ToyPowerConfig(), plc.Locations)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.Energy-19) > 1e-9 {
		t.Errorf("schedule C energy = %v, want 19", st.Energy)
	}
	exact, est, err := SolveOfflineExact(reqs, plc.Locations, ToyPowerConfig())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Energy-19) > 1e-9 || !exact.Valid(reqs, plc.Locations) {
		t.Errorf("exact energy = %v", est.Energy)
	}
}

func TestFacadeTraceRoundTrip(t *testing.T) {
	t.Parallel()
	reqs := FinancialLike(500, 200, 6)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, FormatSPC, reqs); err != nil {
		t.Fatal(err)
	}
	loaded, blocks, err := LoadTrace(&buf, FormatSPC, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 500 || blocks == 0 {
		t.Errorf("loaded %d requests over %d blocks", len(loaded), blocks)
	}
	if _, _, err := LoadTrace(&buf, TraceFormat(9), 0); err == nil {
		t.Error("accepted unknown format")
	}
	if err := WriteTrace(&buf, TraceFormat(9), nil); err == nil {
		t.Error("accepted unknown format for write")
	}
}

func TestFacadePredictiveScheduler(t *testing.T) {
	t.Parallel()
	plc := examplePlacement(t)
	reqs := CelloLike(2000, 1000, 8)
	cfg := DefaultSystemConfig()
	cfg.NumDisks = 16
	p, err := NewPredictiveScheduler(plc.Locations, DefaultCost(cfg.Power), 0.5, cfg.Power.Breakeven())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunOnline(cfg, plc.Locations, p, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != 2000 {
		t.Errorf("served %d", res.Served)
	}
}

func TestFacadeWorkloadStats(t *testing.T) {
	t.Parallel()
	ws := AnalyzeWorkload(CelloLike(5000, 1000, 9))
	if ws.Count != 5000 || ws.CoV < 2 {
		t.Errorf("stats = %+v", ws)
	}
}
