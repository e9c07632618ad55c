package experiments

import (
	"strings"
	"sync"
	"testing"
)

// sweepCache shares one small-scale Cello sweep across tests (it is the
// expensive fixture behind Figures 6, 7, 8 and 13).
var (
	sweepOnce sync.Once
	sweepVal  *ReplicationSweep
	sweepErr  error
)

func celloSweep(t *testing.T) *ReplicationSweep {
	t.Helper()
	sweepOnce.Do(func() {
		sweepVal, sweepErr = SweepReplication(SmallScale(), Cello)
	})
	if sweepErr != nil {
		t.Fatal(sweepErr)
	}
	return sweepVal
}

func TestScaleValidate(t *testing.T) {
	t.Parallel()
	if err := FullScale().Validate(); err != nil {
		t.Errorf("FullScale invalid: %v", err)
	}
	if err := SmallScale().Validate(); err != nil {
		t.Errorf("SmallScale invalid: %v", err)
	}
	bad := SmallScale()
	bad.NumDisks = 0
	if err := bad.Validate(); err == nil {
		t.Error("accepted zero disks")
	}
	bad = SmallScale()
	bad.BatchInterval = 0
	if err := bad.Validate(); err == nil {
		t.Error("accepted zero batch interval")
	}
}

func TestFullScaleMatchesPaperSetup(t *testing.T) {
	t.Parallel()
	s := FullScale()
	if s.NumDisks != 180 || s.NumRequests != 70000 || s.NumBlocks != 30000 {
		t.Errorf("full scale = %d disks / %d requests / %d blocks, want 180/70000/30000",
			s.NumDisks, s.NumRequests, s.NumBlocks)
	}
}

func TestTraceString(t *testing.T) {
	t.Parallel()
	if Cello.String() != "cello" || Financial.String() != "financial1" {
		t.Error("trace names wrong")
	}
	if got := Trace(9).String(); got != "Trace(9)" {
		t.Errorf("unknown trace = %q", got)
	}
}

func TestSweepRF1AllOnlineSchedulersCoincide(t *testing.T) {
	sw := celloSweep(t)
	// Without replication there is nothing to schedule: random, static and
	// heuristic all route to the single location.
	r, _ := sw.Get(1, AlgoRandom)
	s, _ := sw.Get(1, AlgoStatic)
	h, _ := sw.Get(1, AlgoHeuristic)
	if r.NormEnergy != s.NormEnergy || s.NormEnergy != h.NormEnergy {
		t.Errorf("rf=1 energies differ: %.4f / %.4f / %.4f", r.NormEnergy, s.NormEnergy, h.NormEnergy)
	}
	if r.SpinUps != s.SpinUps || s.SpinUps != h.SpinUps {
		t.Errorf("rf=1 spin-ups differ: %d / %d / %d", r.SpinUps, s.SpinUps, h.SpinUps)
	}
}

func TestFigureTablesRender(t *testing.T) {
	sw := celloSweep(t)
	for _, tbl := range []*Table{sw.Figure6(), sw.Figure7(), sw.Figure8(), sw.Figure13()} {
		out := tbl.Render()
		if !strings.Contains(out, "replication") || len(strings.Split(out, "\n")) < 7 {
			t.Errorf("table render too small:\n%s", out)
		}
		if tsv := tbl.TSV(); !strings.Contains(tsv, "\t") {
			t.Error("TSV missing tabs")
		}
	}
}

func TestTableMarkdown(t *testing.T) {
	t.Parallel()
	tbl := &Table{Title: "T", Header: []string{"a", "b"}, Rows: [][]string{{"1", "2"}}}
	want := "### T\n\n| a | b |\n| --- | --- |\n| 1 | 2 |\n\n"
	if got := tbl.Markdown(); got != want {
		t.Errorf("markdown table =\n%q\nwant\n%q", got, want)
	}
}

func TestFigure5Contents(t *testing.T) {
	t.Parallel()
	out := Figure5().Render()
	for _, want := range []string{"idle power", "breakeven", "9.3 W", "135 J"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 5 missing %q:\n%s", want, out)
		}
	}
}

func TestFigure2And3WorkedExamples(t *testing.T) {
	t.Parallel()
	f2 := Figure2().Render()
	for _, want := range []string{"15", "10"} {
		if !strings.Contains(f2, want) {
			t.Errorf("Figure 2 missing energy %s:\n%s", want, f2)
		}
	}
	f3 := Figure3().Render()
	for _, want := range []string{"23", "19"} {
		if !strings.Contains(f3, want) {
			t.Errorf("Figure 3 missing energy %s:\n%s", want, f3)
		}
	}
}

func TestFigure4Walkthrough(t *testing.T) {
	t.Parallel()
	out := Figure4().Render()
	for _, want := range []string{"X(1,2,1)", "X(2,3,2)", "3: selected", "4: energy"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 4 missing %q:\n%s", want, out)
		}
	}
}

func TestFigure9Breakdown(t *testing.T) {
	t.Parallel()
	tbl, err := Figure9(SmallScale(), Cello)
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.Render()
	for _, algo := range Algorithms() {
		if !strings.Contains(out, algo) {
			t.Errorf("Figure 9 missing algorithm %s", algo)
		}
	}
	// 5 algorithms x up-to-10 deciles.
	if got := len(tbl.Rows); got < 25 {
		t.Errorf("Figure 9 has %d rows", got)
	}
}

func TestFigure10LocalityTrends(t *testing.T) {
	t.Parallel()
	s := SmallScale()
	s.ZipfSteps = []float64{0, 1}
	tbl, err := Figure10(s, Cello)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(s.ZipfSteps)*len(ReplicationFactors()) {
		t.Fatalf("Figure 10 rows = %d", len(tbl.Rows))
	}
	if !strings.Contains(tbl.Render(), "z") {
		t.Error("missing z column")
	}
}

func TestFigure11TradeoffDirections(t *testing.T) {
	t.Parallel()
	s := SmallScale()
	s.Alphas = []float64{0, 1}
	s.Betas = []float64{10}
	tbl, err := Figure11(s, Cello)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Row 0 is alpha=0 (normalized 1.000); row 1 is alpha=1 and must have
	// lower energy and higher response (Appendix A.2's tradeoff).
	var e0, e1, r0, r1 float64
	if _, err := fmtSscan(tbl.Rows[0][2], &e0); err != nil {
		t.Fatal(err)
	}
	if _, err := fmtSscan(tbl.Rows[1][2], &e1); err != nil {
		t.Fatal(err)
	}
	if _, err := fmtSscan(tbl.Rows[0][3], &r0); err != nil {
		t.Fatal(err)
	}
	if _, err := fmtSscan(tbl.Rows[1][3], &r1); err != nil {
		t.Fatal(err)
	}
	if e1 >= e0 {
		t.Errorf("alpha=1 energy %.3f not below alpha=0 %.3f", e1, e0)
	}
	if r1 <= r0 {
		t.Errorf("alpha=1 response %.3f not above alpha=0 %.3f", r1, r0)
	}
}

func TestFigure12CCDFIsMonotone(t *testing.T) {
	t.Parallel()
	tbl, err := Figure12(SmallScale(), Cello)
	if err != nil {
		t.Fatal(err)
	}
	// Each data column is non-increasing down the rows.
	for col := 1; col < len(tbl.Header); col++ {
		prev := 2.0
		for _, row := range tbl.Rows {
			var v float64
			if _, err := fmtSscan(row[col], &v); err != nil {
				t.Fatal(err)
			}
			if v > prev+1e-12 {
				t.Fatalf("column %s not monotone", tbl.Header[col])
			}
			prev = v
		}
	}
}

// TestFinancialSweepSharesTrends pins that a Financial1 sweep renders as
// the paper's Figures 14–16; TestPaperClaims checks its trends.
func TestFinancialSweepSharesTrends(t *testing.T) {
	t.Parallel()
	sw := &ReplicationSweep{Trace: Financial}
	if !strings.Contains(sw.Figure6().Title, "14") {
		t.Error("Financial sweep should render as Figure 14")
	}
	if !strings.Contains(sw.Figure7().Title, "15") {
		t.Error("Financial sweep should render as Figure 15")
	}
	if !strings.Contains(sw.Figure8().Title, "16") {
		t.Error("Financial sweep should render as Figure 16")
	}
}
