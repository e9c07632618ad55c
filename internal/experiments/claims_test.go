package experiments

import (
	"os"
	"strings"
	"testing"
)

// raceEnabled is set by race_test.go: the race detector slows the
// full-scale sweeps TestPaperClaims runs several-fold, and race-hot would
// run them four times over.
var raceEnabled bool

// The paper-claims block of EXPERIMENTS.md lies between these markers.
const (
	claimsBegin = "<!-- paper-claims:begin -->\n"
	claimsEnd   = "<!-- paper-claims:end -->\n"
)

// TestPaperClaims evaluates the paper-claims table at the paper's scale
// with the doctor on, as `tracelens doctor fidelity` does: every claim's
// verdict must equal its declared status, and EXPERIMENTS.md must carry the
// table exactly as generated.
func TestPaperClaims(t *testing.T) {
	if raceEnabled {
		t.Skip("full-scale sweeps are too slow under the race detector")
	}
	s := FullScale()
	s.Doctor = true
	tbl, off, err := Claims(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range off {
		t.Errorf("claim %s", o)
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok1 := strings.Cut(string(doc), claimsBegin)
	block, _, ok2 := strings.Cut(rest, claimsEnd)
	if !ok1 || !ok2 {
		t.Fatalf("EXPERIMENTS.md lacks the %q ... %q block", claimsBegin, claimsEnd)
	}
	if want := tbl.Markdown(); block != want {
		t.Errorf("EXPERIMENTS.md's paper-claims block differs from the generated table; replace it with:\n%s", want)
	}
}
