package experiments

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/diskmodel"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/storage"
)

// Figure5 renders the 2CPM configuration used in the evaluation (the
// paper's Figure 5 table, with our Barracuda-class substitutions).
func Figure5() *Table {
	cfg := power.DefaultConfig()
	t := &Table{
		Title:  "Figure 5: 2CPM configuration (Seagate Cheetah 15K.5 mechanics, Barracuda-class power)",
		Header: []string{"parameter", "value"},
	}
	t.AddRow("active power P_A", fmt.Sprintf("%.1f W", cfg.ActivePower))
	t.AddRow("idle power P_I", fmt.Sprintf("%.1f W", cfg.IdlePower))
	t.AddRow("standby power", fmt.Sprintf("%.1f W", cfg.StandbyPower))
	t.AddRow("spin-up energy E_up", fmt.Sprintf("%.0f J", cfg.SpinUpEnergy))
	t.AddRow("spin-down energy E_down", fmt.Sprintf("%.0f J", cfg.SpinDownEnergy))
	t.AddRow("spin-up time T_up", cfg.SpinUpTime.String())
	t.AddRow("spin-down time T_down", cfg.SpinDownTime.String())
	t.AddRow("breakeven time T_B = E_up/down / P_I", cfg.Breakeven().Round(10*time.Millisecond).String())
	return t
}

// Figure6 renders energy consumption versus replication factor, normalized
// to the always-on configuration (Cello in the paper's Figure 6; pass a
// Financial sweep for Figure 14).
func (sw *ReplicationSweep) Figure6() *Table {
	number := "6"
	if sw.Trace == Financial {
		number = "14"
	}
	t := &Table{
		Title:  fmt.Sprintf("Figure %s: normalized energy vs replication factor (%s)", number, sw.Trace),
		Header: append([]string{"replication"}, Algorithms()...),
	}
	for _, rf := range sw.RFs {
		row := []string{fmt.Sprint(rf)}
		for _, algo := range Algorithms() {
			r, _ := sw.Get(rf, algo)
			row = append(row, fmt.Sprintf("%.3f", r.NormEnergy))
		}
		t.AddRow(row...)
	}
	return t
}

// Figure7 renders disk spin-up/down operations versus replication factor,
// normalized to Static (Figure 7 / Figure 15).
func (sw *ReplicationSweep) Figure7() *Table {
	number := "7"
	if sw.Trace == Financial {
		number = "15"
	}
	t := &Table{
		Title:  fmt.Sprintf("Figure %s: spin-up/down operations vs replication factor, normalized to static (%s)", number, sw.Trace),
		Header: append([]string{"replication"}, Algorithms()...),
	}
	for _, rf := range sw.RFs {
		static, _ := sw.Get(rf, AlgoStatic)
		base := float64(static.SpinUps + static.SpinDowns)
		row := []string{fmt.Sprint(rf)}
		for _, algo := range Algorithms() {
			r, _ := sw.Get(rf, algo)
			row = append(row, fmt.Sprintf("%.3f", float64(r.SpinUps+r.SpinDowns)/base))
		}
		t.AddRow(row...)
	}
	return t
}

// onlineAlgos are the algorithms shown in the response-time figures: the
// offline MWIS model has no spin-up delay by construction, so the paper
// omits it (Section 5.3).
func onlineAlgos() []string {
	return []string{AlgoRandom, AlgoStatic, AlgoHeuristic, AlgoWSC}
}

// Figure8 renders mean request response time versus replication factor
// (Figure 8 / Figure 16).
func (sw *ReplicationSweep) Figure8() *Table {
	number := "8"
	if sw.Trace == Financial {
		number = "16"
	}
	t := &Table{
		Title:  fmt.Sprintf("Figure %s: mean request response time vs replication factor (%s)", number, sw.Trace),
		Header: append([]string{"replication"}, onlineAlgos()...),
	}
	for _, rf := range sw.RFs {
		row := []string{fmt.Sprint(rf)}
		for _, algo := range onlineAlgos() {
			r, _ := sw.Get(rf, algo)
			row = append(row, r.Mean.Round(time.Millisecond).String())
		}
		t.AddRow(row...)
	}
	return t
}

// Figure13 renders the 90th-percentile response time versus replication
// factor (Appendix A.3).
func (sw *ReplicationSweep) Figure13() *Table {
	t := &Table{
		Title:  fmt.Sprintf("Figure 13: 90th-percentile response time vs replication factor (%s)", sw.Trace),
		Header: append([]string{"replication"}, onlineAlgos()...),
	}
	for _, rf := range sw.RFs {
		row := []string{fmt.Sprint(rf)}
		for _, algo := range onlineAlgos() {
			r, _ := sw.Get(rf, algo)
			row = append(row, r.P90.Round(time.Millisecond).String())
		}
		t.AddRow(row...)
	}
	return t
}

// Figure9 renders the per-disk state-time breakdown at replication factor 3
// (Figure 9 for Cello, Figure 17 for Financial1). Disks are sorted by
// standby time as in the paper and summarized per decile. Its five cells
// are the replication sweep's rf=3 cells, shared through the sweep cache.
func Figure9(s Scale, tr Trace) (*Table, error) { return defaultSweepCache.figure9(s, tr) }

func (c *SweepCache) figure9(s Scale, tr Trace) (*Table, error) {
	_, runs, err := c.lookup(s, tr, gridCells(3, Algorithms()...))
	if err != nil {
		return nil, err
	}
	number := "9"
	if tr == Financial {
		number = "17"
	}
	t := &Table{
		Title:  fmt.Sprintf("Figure %s: per-disk time breakdown at replication factor 3 (%s); disks sorted by standby time, decile averages", number, tr),
		Header: []string{"algorithm", "disk decile", "standby%", "idle%", "active%", "spin%"},
	}
	for _, run := range runs {
		appendBreakdownRows(t, run.Algo, run.PerDisk)
	}
	return t, nil
}

func appendBreakdownRows(t *Table, algo string, perDisk []diskmodel.Stats) {
	stats := append([]diskmodel.Stats(nil), perDisk...)
	sort.Slice(stats, func(i, j int) bool {
		return stats[i].StandbyFraction() > stats[j].StandbyFraction()
	})
	deciles := 10
	if len(stats) < deciles {
		deciles = len(stats)
	}
	for dec := 0; dec < deciles; dec++ {
		lo := dec * len(stats) / deciles
		hi := (dec + 1) * len(stats) / deciles
		var standby, idle, active, spin, total float64
		for _, st := range stats[lo:hi] {
			standby += st.TimeIn[core.StateStandby].Seconds()
			idle += st.TimeIn[core.StateIdle].Seconds()
			active += st.TimeIn[core.StateActive].Seconds()
			spin += st.TimeIn[core.StateSpinUp].Seconds() + st.TimeIn[core.StateSpinDown].Seconds()
			total += st.Total().Seconds()
		}
		if total == 0 {
			total = 1
		}
		t.AddRow(algo, fmt.Sprintf("%d-%d%%", dec*10, (dec+1)*10),
			fmt.Sprintf("%.1f", 100*standby/total),
			fmt.Sprintf("%.1f", 100*idle/total),
			fmt.Sprintf("%.2f", 100*active/total),
			fmt.Sprintf("%.1f", 100*spin/total))
	}
}

// Figure10 renders the energy surface over replication factor and data
// locality (Appendix A.1): Random, Static and Heuristic under Zipf
// exponents from ZipfSteps and replication factors 1-5. Its z=1 cells are
// the replication sweep's, shared through the sweep cache.
func Figure10(s Scale, tr Trace) (*Table, error) { return defaultSweepCache.figure10(s, tr) }

func (c *SweepCache) figure10(s Scale, tr Trace) (*Table, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	algos := []string{AlgoRandom, AlgoStatic, AlgoHeuristic}
	t := &Table{
		Title:  fmt.Sprintf("Figure 10: normalized energy vs replication factor and data locality z (%s)", tr),
		Header: append([]string{"z", "replication"}, algos...),
	}
	type point struct {
		z  float64
		rf int
	}
	var points []point
	var swept, own []int // indices into points: sweep-grid points and the rest
	var want []int       // the sweep-grid points' cells
	for _, z := range s.ZipfSteps {
		for _, rf := range ReplicationFactors() {
			if z == 1 {
				swept = append(swept, len(points))
				want = append(want, gridCells(rf, algos...)...)
			} else {
				own = append(own, len(points))
			}
			points = append(points, point{z, rf})
		}
	}
	energies := make([][]float64, len(points))
	if len(want) > 0 {
		_, runs, err := c.lookup(s, tr, want)
		if err != nil {
			return nil, err
		}
		for k, i := range swept {
			for _, run := range runs[k*len(algos) : (k+1)*len(algos)] {
				energies[i] = append(energies[i], run.NormEnergy)
			}
		}
	}
	reqs := tr.Requests(s)
	cost := sched.DefaultCost(storage.DefaultConfig().Power)
	err := runParallel(len(own), s.Parallelism, func(j int) error {
		i := own[j]
		p := points[i]
		plc, err := makePlacement(s, p.rf, p.z)
		if err != nil {
			return err
		}
		energies[i] = make([]float64, len(algos))
		for a, algo := range algos {
			run, err := cell(s, reqs, plc, algo, cost)
			if err != nil {
				return fmt.Errorf("z=%.2f rf=%d %s: %w", p.z, p.rf, algo, err)
			}
			energies[i][a] = run.NormEnergy
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, p := range points {
		row := []string{fmt.Sprintf("%.2f", p.z), fmt.Sprint(p.rf)}
		for a := range algos {
			row = append(row, fmt.Sprintf("%.3f", energies[i][a]))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Figure11 renders the cost-function sweep (Appendix A.2): normalized
// energy and mean response time of the online Heuristic for every
// (alpha, beta) pair, each normalized to that beta's alpha=0 run. The
// pairs run on the worker pool, on the replication sweep's request stream
// and rf=3 placement, shared through the sweep cache.
func Figure11(s Scale, tr Trace) (*Table, error) { return defaultSweepCache.figure11(s, tr) }

func (c *SweepCache) figure11(s Scale, tr Trace) (*Table, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	e := c.entry(s, tr)
	plc, err := e.plcs[3]()
	if err != nil {
		return nil, err
	}
	reqs := e.reqs()
	pwr := storage.DefaultConfig().Power
	na := len(s.Alphas)
	runs := make([]Run, len(s.Betas)*na)
	err = runParallel(len(runs), s.Parallelism, func(i int) error {
		alpha, beta := s.Alphas[i%na], s.Betas[i/na]
		run, err := cell(s, reqs, plc, AlgoHeuristic, sched.CostConfig{Alpha: alpha, Beta: beta, Power: pwr})
		if err != nil {
			return fmt.Errorf("alpha=%v beta=%v: %w", alpha, beta, err)
		}
		runs[i] = run
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Figure 11: cost-function tradeoff at replication factor 3 (%s); energy and response normalized to alpha=0", tr),
		Header: []string{"beta", "alpha", "norm energy", "norm response", "energy (abs)", "response (abs)"},
	}
	for i, run := range runs {
		base := runs[i-i%na]
		t.AddRow(fmt.Sprintf("%.0f", s.Betas[i/na]), fmt.Sprintf("%.1f", s.Alphas[i%na]),
			fmt.Sprintf("%.3f", run.NormEnergy/base.NormEnergy),
			fmt.Sprintf("%.3f", float64(run.Mean)/float64(base.Mean)),
			fmt.Sprintf("%.3f", run.NormEnergy),
			run.Mean.Round(time.Millisecond).String())
	}
	return t, nil
}

// Figure12 renders the inverse cumulative response-time distribution
// P[response > x] at replication factor 3 (Appendix A.3), including the
// always-on baseline, which never pays spin-up delays. Its four scheduler
// cells are the replication sweep's online rf=3 cells, shared through the
// sweep cache; the baseline is simulated on the sweep's rf=3 placement.
func Figure12(s Scale, tr Trace) (*Table, error) { return defaultSweepCache.figure12(s, tr) }

func (c *SweepCache) figure12(s Scale, tr Trace) (*Table, error) {
	e, runs, err := c.lookup(s, tr, gridCells(3, onlineAlgos()...))
	if err != nil {
		return nil, err
	}
	plc, err := e.plcs[3]()
	if err != nil {
		return nil, err
	}
	thresholds := metrics.LogSpace(time.Millisecond, 30*time.Second, 14)

	// Always-on baseline: static routing, disks never sleep.
	aCfg := storage.DefaultConfig()
	aCfg.NumDisks = s.NumDisks
	aCfg.Policy = power.AlwaysOn{}
	aCfg.InitialState = core.StateIdle
	aRes, err := storage.RunOnline(aCfg, plc.Locations, sched.Static{Locations: plc.Locations}, e.reqs())
	if err != nil {
		return nil, err
	}
	names := []string{"always-on"}
	ccdfs := [][]float64{aRes.Response.CCDF(thresholds)}
	for _, run := range runs {
		names = append(names, run.Algo)
		ccdfs = append(ccdfs, run.Response.CCDF(thresholds))
	}

	t := &Table{
		Title:  fmt.Sprintf("Figure 12: P[response time > x] at replication factor 3 (%s)", tr),
		Header: append([]string{"x"}, names...),
	}
	for i, x := range thresholds {
		row := []string{x.Round(time.Millisecond).String()}
		for _, ccdf := range ccdfs {
			row = append(row, fmt.Sprintf("%.4f", ccdf[i]))
		}
		t.AddRow(row...)
	}
	return t, nil
}
