// Package report renders experiment results as a single Markdown document:
// the paper-claims table, the replication sweeps for both traces, and
// (optionally) the extension experiments. cmd/figures -summary drives it.
package report

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/account"
	"repro/internal/experiments"
)

// Options selects report content.
type Options struct {
	Scale experiments.Scale
	// Extensions includes the extension experiment tables.
	Extensions bool
	// Generated stamps the document; zero omits the stamp.
	Generated time.Time
	// Grid, when non-nil, adds the carbon & TCO section: per-policy
	// gCO2e/cost pricing of the Cello sweep plus the consolidation
	// what-if, all cache hits against the sweeps above.
	Grid *account.GridProfile
	// Cost is the cost model for the carbon & TCO section (zero value
	// falls back to account.DefaultCostModel).
	Cost account.CostModel
}

// Generate runs the sweeps and renders the Markdown report. On error the
// markdown accumulated before the failure is returned alongside it (with a
// truncation note), so callers can flush partial results instead of
// discarding completed sweeps.
func Generate(opts Options) (string, error) {
	var b strings.Builder
	b.WriteString("# Energy-aware scheduling — experiment summary\n\n")
	if !opts.Generated.IsZero() {
		fmt.Fprintf(&b, "_Generated %s._\n\n", opts.Generated.Format(time.RFC3339))
	}
	fmt.Fprintf(&b, "Setup: %d disks, %d requests over %d blocks, 2CPM power management.\n\n",
		opts.Scale.NumDisks, opts.Scale.NumRequests, opts.Scale.NumBlocks)

	claims, _, err := experiments.Claims(opts.Scale)
	if err != nil {
		return truncated(&b, err), err
	}
	b.WriteString(claims.Markdown())
	for _, tr := range []experiments.Trace{experiments.Cello, experiments.Financial} {
		sweep, err := experiments.SweepReplication(opts.Scale, tr)
		if err != nil {
			return truncated(&b, err), err
		}
		fmt.Fprintf(&b, "## %s trace\n\n", tr)
		for _, tbl := range []*experiments.Table{
			sweep.Figure6(), sweep.Figure7(), sweep.Figure8(),
		} {
			b.WriteString(tbl.Markdown())
		}
	}

	if opts.Grid != nil {
		cost := opts.Cost
		if cost == (account.CostModel{}) {
			cost = account.DefaultCostModel()
		}
		fmt.Fprintf(&b, "## Carbon & TCO (grid %s, tariff %s)\n\n", opts.Grid.Name, cost.Name)
		b.WriteString("Re-pricings of the Cello sweep above — sweep-cache hits, no extra simulation.\n\n")
		ct, err := experiments.CarbonTable(opts.Scale, experiments.Cello, opts.Grid, cost)
		if err != nil {
			return truncated(&b, err), err
		}
		b.WriteString(ct.Markdown())
		wt, err := experiments.WhatIfTable(opts.Scale, experiments.Cello, opts.Grid, cost)
		if err != nil {
			return truncated(&b, err), err
		}
		b.WriteString(wt.Markdown())
	}

	if opts.Extensions {
		tables, err := experiments.Extensions(opts.Scale, experiments.Cello)
		if err != nil {
			return truncated(&b, err), err
		}
		b.WriteString("## Extensions\n\n")
		for _, tbl := range tables {
			b.WriteString(tbl.Markdown())
		}
	}
	return b.String(), nil
}

// truncated stamps a partial report with the failure that cut it short.
func truncated(b *strings.Builder, err error) string {
	fmt.Fprintf(b, "> **Report truncated**: %v\n", err)
	return b.String()
}
