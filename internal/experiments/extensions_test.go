package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func tinyScale() Scale {
	s := SmallScale()
	s.NumRequests = 3000
	s.NumBlocks = 1200
	s.NumDisks = 16
	return s
}

func TestExtensionOffloadSavesEnergy(t *testing.T) {
	t.Parallel()
	tbl, err := ExtensionOffload(tinyScale(), Cello)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		base, err1 := strconv.ParseFloat(row[1], 64)
		off, err2 := strconv.ParseFloat(row[2], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("unparseable row %v", row)
		}
		if off >= base {
			t.Errorf("write fraction %s: off-loading energy %.3f not below baseline %.3f",
				row[0], off, base)
		}
	}
}

func TestExtensionCacheTrends(t *testing.T) {
	t.Parallel()
	tbl, err := ExtensionCache(tinyScale(), Cello)
	if err != nil {
		t.Fatal(err)
	}
	// 1 uncached row + 3 sizes x 2 policies.
	if len(tbl.Rows) != 7 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	uncached, _ := strconv.ParseFloat(tbl.Rows[0][3], 64)
	prevHit := -1.0
	// The last rows hold the largest capacity, where energy gains are
	// unambiguous; a tiny cache may perturb idle-gap structure either way.
	for i, row := range tbl.Rows[1:] {
		hit, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		energy, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		if hit <= 0 {
			t.Errorf("capacity %s %s: zero hit rate", row[0], row[1])
		}
		largest := i >= len(tbl.Rows[1:])-2
		if largest && energy >= uncached {
			t.Errorf("capacity %s %s: cached energy %.3f not below uncached %.3f",
				row[0], row[1], energy, uncached)
		}
		if !largest && energy > uncached*1.05 {
			t.Errorf("capacity %s %s: cached energy %.3f far above uncached %.3f",
				row[0], row[1], energy, uncached)
		}
		if row[1] == "lru" {
			// Hit rate grows (weakly) with capacity across LRU rows.
			if hit < prevHit-1e-9 {
				t.Errorf("LRU hit rate fell with capacity: %v", tbl.Rows)
			}
			prevHit = hit
		}
	}
}

func TestExtensionRackAwareRuns(t *testing.T) {
	t.Parallel()
	tbl, err := ExtensionRackAware(tinyScale(), Cello)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		for _, col := range []int{2, 3} {
			v, err := strconv.ParseFloat(row[col], 64)
			if err != nil || v <= 0 || v >= 1.5 {
				t.Errorf("implausible energy %q in row %v", row[col], row)
			}
		}
	}
}

func TestExtensionPredictiveRuns(t *testing.T) {
	t.Parallel()
	tbl, err := ExtensionPredictive(tinyScale(), Cello)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		h, err1 := strconv.ParseFloat(row[1], 64)
		p, err2 := strconv.ParseFloat(row[2], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("unparseable row %v", row)
		}
		// The predictive variant should stay in the same ballpark (it is a
		// refinement, not a regression): within 15% of the heuristic.
		if p > h*1.15 {
			t.Errorf("rf=%s: predictive energy %.3f far above heuristic %.3f", row[0], p, h)
		}
	}
}

// TestExtensionDPMDeterministic: two ExtensionDPM calls in one process
// must print the same table. Go randomizes map iteration on every range, so
// gathering the gaps from a map keyed by disk reorders the EWMA's history
// from call to call and fails here. Full scale, because 180 disks' worth of
// reordered history is what moves the printed energies.
func TestExtensionDPMDeterministic(t *testing.T) {
	t.Parallel()
	var out [2]string
	for i := range out {
		tbl, err := ExtensionDPM(FullScale(), Cello)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = tbl.Render()
	}
	if out[0] != out[1] {
		t.Fatalf("ExtensionDPM differs between calls:\n%s\n%s", out[0], out[1])
	}
}

func TestExtensionDPMOrdering(t *testing.T) {
	t.Parallel()
	tbl, err := ExtensionDPM(tinyScale(), Cello)
	if err != nil {
		t.Fatal(err)
	}
	ratios := map[string]float64{}
	for _, row := range tbl.Rows {
		r, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("unparseable ratio in %v", row)
		}
		ratios[row[0]] = r
	}
	tau := ""
	for name := range ratios {
		if strings.HasPrefix(name, "fixed(") && tau == "" {
			tau = name
		}
	}
	// The breakeven threshold (first fixed row) is 2-competitive.
	breakeven, ok := ratios[tbl.Rows[1][0]]
	if !ok {
		t.Fatal("missing breakeven row")
	}
	if breakeven > 2.0+1e-9 || breakeven < 1 {
		t.Errorf("breakeven competitive ratio = %.3f, want in [1,2]", breakeven)
	}
	if ratios["offline oracle"] != 1 {
		t.Error("oracle ratio != 1")
	}
	for name, r := range ratios {
		if r < 1-1e-9 {
			t.Errorf("%s beat the oracle: ratio %.3f", name, r)
		}
	}
}

func TestExtensionDisciplineRuns(t *testing.T) {
	t.Parallel()
	tbl, err := ExtensionDiscipline(tinyScale(), Cello)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	names := []string{"fifo", "sstf", "scan"}
	for i, row := range tbl.Rows {
		if row[0] != names[i] {
			t.Errorf("row %d discipline = %s, want %s", i, row[0], names[i])
		}
	}
}

func TestExtensionsAggregate(t *testing.T) {
	t.Parallel()
	s := tinyScale()
	s.NumRequests = 1500
	tables, err := Extensions(s, Cello)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 9 {
		t.Fatalf("tables = %d, want 9", len(tables))
	}
	for _, tbl := range tables {
		if !strings.Contains(tbl.Title, "Extension") {
			t.Errorf("table title %q missing Extension", tbl.Title)
		}
		if len(tbl.Rows) == 0 {
			t.Errorf("table %q empty", tbl.Title)
		}
	}
}
