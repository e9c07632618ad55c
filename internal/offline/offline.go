// Package offline implements the paper's offline scheduling theory
// (Section 3.1 and Appendix B): the per-request energy-saving function
// X(i,j,k) of Lemma 1/Eq. 3, the analytic energy evaluator for a schedule
// under the offline model (disks are spun up in advance or kept idle so
// requests never wait), the reduction of offline scheduling to maximum
// weighted independent set (Theorem 1), and the Theorem 3 NP-completeness
// gadget.
//
// In the offline model a disk serving requests at times t_1 < ... < t_n
// costs
//
//	E = E_up + sum_{i<n} gapCost(t_{i+1}-t_i) + (T_B*P_I + E_down)
//
// where gapCost(g) = g*P_I when g < T_B+T_up+T_down (the disk stays idle,
// Lemma 1 cases II/III) and E_up/down + T_B*P_I otherwise (full power
// cycle, case I). Total schedule energy then equals
// N*MaxRequestEnergy - totalSaving, so maximizing Eq. 3 savings is exactly
// minimizing energy.
package offline

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/power"
)

// Saving computes X(i,j,k) of Eq. 3: the energy saved on request r_i when
// its successor on the same disk arrives at t_j. It is zero when the gap
// reaches the replacement window T_B + T_up + T_down.
func Saving(cfg power.Config, ti, tj time.Duration) float64 {
	return newGapModel(cfg).saving(tj - ti)
}

// GapCost returns the energy a disk spends between servicing a request and
// its successor arriving gap later (Lemma 1): idle power for gaps inside
// the replacement window, one full power cycle beyond it.
func GapCost(cfg power.Config, gap time.Duration) float64 {
	if gap < 0 {
		panic(fmt.Sprintf("offline: negative gap %s", gap))
	}
	return newGapModel(cfg).cost(gap)
}

// gapModel holds what Saving and GapCost derive from a power.Config, so
// loops over many gaps derive T_B (a float division) once rather than per
// gap. Its methods evaluate the same expressions on the same operands, so
// their results are bit-identical to Saving's and GapCost's.
type gapModel struct {
	window, breakeven time.Duration
	upDown, idle      float64
	cycle             float64 // one full power cycle: E_up/down + T_B*P_I
}

func newGapModel(cfg power.Config) gapModel {
	tb := cfg.Breakeven()
	return gapModel{
		window:    cfg.ReplacementWindow(),
		breakeven: tb,
		upDown:    cfg.UpDownEnergy(),
		idle:      cfg.IdlePower,
		cycle:     cfg.UpDownEnergy() + tb.Seconds()*cfg.IdlePower,
	}
}

// saving is Saving for a successor gap later.
func (m gapModel) saving(gap time.Duration) float64 {
	if gap < 0 || gap >= m.window {
		return 0
	}
	return m.upDown + (m.breakeven-gap).Seconds()*m.idle
}

// cost is GapCost for a non-negative gap.
func (m gapModel) cost(gap time.Duration) float64 {
	if gap < m.window {
		return gap.Seconds() * m.idle
	}
	return m.cycle
}

// Stats summarizes a schedule under the offline analytic model.
type Stats struct {
	Energy    float64 // joules
	Saving    float64 // joules versus the per-request worst case
	DisksUsed int
	SpinUps   int // including each disk's initial spin-up
	SpinDowns int
}

// Evaluate computes the analytic offline energy of a schedule. locations is
// consulted only for validation and may be nil to skip it.
func Evaluate(reqs []core.Request, sched core.Schedule, cfg power.Config, locations func(core.BlockID) []core.DiskID) (Stats, error) {
	if len(sched) != len(reqs) {
		return Stats{}, fmt.Errorf("offline: schedule covers %d of %d requests", len(sched), len(reqs))
	}
	if locations != nil && !sched.Valid(reqs, locations) {
		return Stats{}, fmt.Errorf("offline: schedule assigns a request off its replica locations")
	}
	numDisks := 0
	for _, d := range sched {
		if d < 0 {
			return Stats{}, fmt.Errorf("offline: schedule assigns negative disk %d", d)
		}
		if int(d)+1 > numDisks {
			numDisks = int(d) + 1
		}
	}
	perDisk := make([][]time.Duration, numDisks)
	counts := make([]int, numDisks)
	for _, r := range reqs {
		counts[sched[r.ID]]++
	}
	for d, c := range counts {
		if c > 0 {
			perDisk[d] = make([]time.Duration, 0, c)
		}
	}
	for _, r := range reqs {
		d := sched[r.ID]
		perDisk[d] = append(perDisk[d], r.Arrival)
	}
	var st Stats
	gm := newGapModel(cfg)
	tail := cfg.Breakeven().Seconds()*cfg.IdlePower + cfg.SpinDownEnergy
	// Disks are visited in id order so the floating-point energy sum is the
	// same on every run (map iteration would reorder the additions).
	for _, times := range perDisk {
		if len(times) == 0 {
			continue
		}
		slices.Sort(times)
		st.DisksUsed++
		st.SpinUps++
		st.SpinDowns++
		st.Energy += cfg.SpinUpEnergy
		for i := 0; i+1 < len(times); i++ {
			gap := times[i+1] - times[i]
			st.Energy += gm.cost(gap)
			if gap >= gm.window {
				st.SpinUps++
				st.SpinDowns++
			}
		}
		st.Energy += tail
	}
	st.Saving = float64(len(reqs))*cfg.MaxRequestEnergy() - st.Energy
	return st, nil
}

// AlwaysOnEnergy returns the energy of the paper's normalization baseline:
// all numDisks disks spinning idle for the whole horizon.
func AlwaysOnEnergy(cfg power.Config, numDisks int, horizon time.Duration) float64 {
	return float64(numDisks) * cfg.IdlePower * horizon.Seconds()
}

// Horizon returns the accounting horizon used when normalizing a trace's
// energy: the last arrival plus the time for the last disk to finish its
// breakeven idle period and spin down.
func Horizon(reqs []core.Request, cfg power.Config) time.Duration {
	if len(reqs) == 0 {
		return 0
	}
	last := reqs[len(reqs)-1].Arrival
	for _, r := range reqs {
		if r.Arrival > last {
			last = r.Arrival
		}
	}
	return HorizonAfter(last, cfg)
}

// HorizonAfter is Horizon for a stream whose last arrival is at last (0
// when nothing arrived), for callers that see arrivals one at a time.
func HorizonAfter(last time.Duration, cfg power.Config) time.Duration {
	return last + cfg.Breakeven() + cfg.SpinUpTime + cfg.SpinDownTime
}
