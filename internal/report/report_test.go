package report

import (
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
)

func reportScale() experiments.Scale {
	s := experiments.SmallScale()
	s.NumRequests = 1500
	s.NumBlocks = 800
	s.NumDisks = 12
	return s
}

func TestGenerateBasicReport(t *testing.T) {
	t.Parallel()
	out, err := Generate(Options{Scale: reportScale()})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# Energy-aware scheduling",
		"### Paper claims",
		"## cello trace",
		"## financial1 trace",
		"Figure 6",
		"Figure 7",
		"Figure 8",
		"| replication |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if strings.Contains(out, "_Generated") {
		t.Error("unstamped report carries a timestamp")
	}
	if strings.Contains(out, "## Extensions") {
		t.Error("extensions included without opting in")
	}
}

func TestGenerateWithExtensionsAndStamp(t *testing.T) {
	t.Parallel()
	out, err := Generate(Options{
		Scale:      reportScale(),
		Extensions: true,
		Generated:  time.Date(2026, 7, 5, 12, 0, 0, 0, time.UTC),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"_Generated 2026-07-05T12:00:00Z._",
		"## Extensions",
		"write off-loading",
		"gear-shifting",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}
