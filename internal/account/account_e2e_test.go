package account_test

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/account"
	"repro/internal/core"
	"repro/internal/diskmodel"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/obs/monitor"
	"repro/internal/placement"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/storage"
	"repro/internal/workload"
)

func e2eConfig(numDisks int) storage.Config {
	p := power.DefaultConfig()
	return storage.Config{
		NumDisks: numDisks,
		Power:    p,
		Mech:     diskmodel.Cheetah15K5(),
		Policy:   power.TwoCompetitive{Config: p},
	}
}

func e2eWorkload(t *testing.T, numDisks, numBlocks, numReqs, rf int, seed int64) ([]core.Request, *placement.Placement) {
	t.Helper()
	p, err := placement.Generate(placement.GenerateConfig{
		NumDisks: numDisks, NumBlocks: numBlocks,
		ReplicationFactor: rf, ZipfExponent: 1, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return workload.CelloLike(numReqs, numBlocks, seed), p
}

// runWithGrid runs a deterministic cell with carbon accounting attached
// and returns the finalized report, the run result, the event log, the
// monitor suite and the metrics export.
func runWithGrid(t *testing.T, g *account.GridProfile) (account.Report, *storage.Result, []byte, *monitor.Suite, string) {
	t.Helper()
	cfg := e2eConfig(8)
	reqs, p := e2eWorkload(t, 8, 60, 400, 2, 3)

	var log bytes.Buffer
	tr := obs.NewTracer(512)
	tr.SetSink(&log, false)
	col := obs.NewCollector()
	suite := monitor.NewSuite(monitor.Config{Power: cfg.Power})
	acc, err := account.NewAccumulator(cfg.Power, g, account.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	res, err := storage.RunOnline(cfg, p.Locations, sched.Static{Locations: p.Locations}, reqs,
		storage.WithTracer(tr), storage.WithCollector(col),
		storage.WithMonitor(suite), storage.WithAccounting(acc))
	if err != nil {
		t.Fatal(err)
	}
	var export bytes.Buffer
	if _, err := col.WriteTo(&export); err != nil {
		t.Fatal(err)
	}
	return acc.Finalize(), res, log.Bytes(), suite, export.String()
}

func TestAccountingMatchesMeterBitExact(t *testing.T) {
	// First pass under the flat grid to learn the horizon, then a second
	// deterministic pass under a short-period custom grid that forces many
	// window boundaries inside the run.
	rep, res, _, _, _ := runWithGrid(t, account.FlatGrid())
	if len(rep.Windows) != 1 {
		t.Fatalf("flat grid produced %d windows", len(rep.Windows))
	}
	if rep.ByState != res.EnergyByState {
		t.Fatalf("flat accounting %v != meter %v", rep.ByState, res.EnergyByState)
	}

	period := res.Horizon / 8
	g := &account.GridProfile{
		Name:   "e2e-cycle",
		Period: period,
		Steps:  []account.GridStep{{Start: 0, Intensity: 480}, {Start: period / 2, Intensity: 90}},
	}
	rep2, res2, _, suite, _ := runWithGrid(t, g)
	if rep2.ByState != res2.EnergyByState {
		t.Fatalf("windowed accounting %v != meter %v", rep2.ByState, res2.EnergyByState)
	}
	if len(rep2.Windows) < 4 {
		t.Fatalf("only %d windows across the run", len(rep2.Windows))
	}
	if !suite.Passed() {
		var r bytes.Buffer
		suite.WriteReport(&r)
		t.Fatalf("monitor flagged the accounting run:\n%s", r.String())
	}
	var report bytes.Buffer
	suite.WriteReport(&report)
	if strings.Contains(report.String(), "SKIP windowed-energy") {
		t.Fatal("windowed-energy check was not exercised")
	}
	// The cumulative-reading construction telescopes per state: summing a
	// state's energy across windows reproduces the meter total for that
	// state EXACTLY (bitwise). The scalar cross-state sum differs from the
	// report total only in addition order, so it gets an epsilon.
	var perState [core.StateSpinDown + 1]float64
	var sum float64
	for _, w := range rep2.Windows {
		sum += w.EnergyJ
		for st := core.StateStandby; st <= core.StateSpinDown; st++ {
			perState[st] += w.ByState[st]
		}
	}
	if perState != res2.EnergyByState {
		t.Fatalf("windowed per-state sums %v != meter %v", perState, res2.EnergyByState)
	}
	if rel := (sum - rep2.EnergyJ) / rep2.EnergyJ; rel > 1e-12 || rel < -1e-12 {
		t.Fatalf("window sum %v vs report total %v", sum, rep2.EnergyJ)
	}
	if rep2.GCO2e <= 0 || rep2.TotalUSD <= 0 {
		t.Fatalf("degenerate pricing %+v", rep2)
	}
}

func TestAccountingReplayIsByteIdentical(t *testing.T) {
	g := account.DiurnalGrid()
	rep, res, log, _, _ := runWithGrid(t, g)

	events, err := analyze.Read(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	replay, err := account.NewAccumulator(e2eConfig(8).Power, g, account.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		replay.Observe(ev)
	}
	rrep := replay.Finalize()
	if !reflect.DeepEqual(rep, rrep) {
		t.Fatalf("replayed report differs:\nlive:   %+v\nreplay: %+v", rep, rrep)
	}
	// Spot-check the replay against the analyzer's own energy attribution.
	run, err := analyze.New(events)
	if err != nil {
		t.Fatal(err)
	}
	if run.EnergyByState() != res.EnergyByState {
		t.Fatalf("analyzer energy %v != result %v", run.EnergyByState(), res.EnergyByState)
	}
}

func TestAccountingMetricsReconcile(t *testing.T) {
	rep, _, _, _, export := runWithGrid(t, account.DiurnalGrid())
	for metric, want := range map[string]float64{
		account.MetricCarbon + `{grid="diurnal"}`:   rep.GCO2e,
		account.MetricCost + `{component="energy"}`: rep.EnergyUSD,
		account.MetricCost + `{component="capex"}`:  rep.CapexUSD,
	} {
		needle := metric + " " + strconv.FormatFloat(want, 'g', -1, 64)
		if !strings.Contains(export, needle) {
			t.Errorf("export missing reconciled series %q\n%s", needle, export)
		}
	}
}

func TestLiveAccountingMatchesBatch(t *testing.T) {
	// Drive the same workload through the Live facade and confirm the
	// accumulator settles to the meter totals there too.
	cfg := e2eConfig(6)
	reqs, p := e2eWorkload(t, 6, 40, 200, 2, 5)
	acc, err := account.NewAccumulator(cfg.Power, account.FlatGrid(), account.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	suite := monitor.NewSuite(monitor.Config{Power: cfg.Power})
	lv, err := storage.NewLive(cfg, p.Locations, storage.WithMonitor(suite), storage.WithAccounting(acc))
	if err != nil {
		t.Fatal(err)
	}
	s := sched.Static{Locations: p.Locations}
	for _, r := range reqs {
		lv.Advance(r.Arrival)
		lv.Arrive(r)
		d, dec := lv.Decide(s, r)
		lv.Deliver(r, d, dec)
	}
	res, err := lv.Finish("static")
	if err != nil {
		t.Fatal(err)
	}
	rep := acc.Finalize()
	if rep.ByState != res.EnergyByState {
		t.Fatalf("live accounting %v != meter %v", rep.ByState, res.EnergyByState)
	}
	if !suite.Passed() {
		var r bytes.Buffer
		suite.WriteReport(&r)
		t.Fatalf("monitor flagged the live run:\n%s", r.String())
	}
	if rep.Horizon != res.Horizon {
		t.Fatalf("horizon %v != %v", rep.Horizon, res.Horizon)
	}
}
