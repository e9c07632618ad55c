package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// The paper-claims table: every claim of the paper's evaluation that the
// Cello and Financial1 replication sweeps can check, each with a predicate
// over the two sweeps and the verdict this reproduction declares for it —
// the claim holds, or it is a known deviation with its reason. Claims
// evaluates the table; `tracelens doctor fidelity` and TestPaperClaims run
// it at FullScale with the doctor on and fail when a verdict differs from
// its declared status, and EXPERIMENTS.md carries the rendered table.

// claim is one row of the paper-claims table.
type claim struct {
	text   string // the paper's claim
	source string // the figure or section that makes it
	// traces are the sweeps the claim is checked on; it holds when it
	// holds on each.
	traces []Trace
	// at checks the claim on one trace's sweep.
	at func(sw *ReplicationSweep) point
	// deviation is empty for a claim declared to hold; otherwise it is why
	// this reproduction departs from the paper.
	deviation string
}

var (
	bothTraces = []Trace{Cello, Financial}
	celloOnly  = []Trace{Cello}
)

// claims lists the rows in presentation order: the claims declared to
// hold, then the declared deviations.
var claims = []claim{
	{
		text:   "Energy-aware scheduling saves up to 55% of the always-on energy at rf 5 (WSC ≤ 0.45)",
		source: "Fig. 6, 14",
		traces: bothTraces,
		at: func(sw *ReplicationSweep) point {
			w := energy(sw, 5, AlgoWSC)
			return point{text: fmt.Sprintf("WSC %.3f", w), ok: w <= 0.45}
		},
	},
	{
		text:   "Energy ordering WSC ≤ Heuristic < Static < Random at every rf ≥ 2",
		source: "Fig. 6, 14",
		traces: bothTraces,
		at: func(sw *ReplicationSweep) point {
			return replicated(func(rf int) point {
				w, h := energy(sw, rf, AlgoWSC), energy(sw, rf, AlgoHeuristic)
				s, r := energy(sw, rf, AlgoStatic), energy(sw, rf, AlgoRandom)
				return point{
					fmt.Sprintf("WSC %.3f, heuristic %.3f, static %.3f, random %.3f", w, h, s, r),
					w <= h && h < s && s < r, min(h-w, s-h, r-s),
				}
			})
		},
	},
	{
		text:   "Offline MWIS uses no more energy than WSC at every rf ≥ 2 (Cello)",
		source: "Fig. 6",
		traces: celloOnly,
		at:     mwisVsWSC,
	},
	{
		text:   "Heuristic at rf 3 uses less energy than always-on, Random and Static (paper: 32.2%, 22.7%, 13.4% less)",
		source: "Sec. 5.1, Fig. 6",
		traces: bothTraces,
		at: func(sw *ReplicationSweep) point {
			h := energy(sw, 3, AlgoHeuristic)
			cutOn, cutR, cutS := 1-h, 1-h/energy(sw, 3, AlgoRandom), 1-h/energy(sw, 3, AlgoStatic)
			return point{
				text: fmt.Sprintf("%.1f%%, %.1f%%, %.1f%% less", 100*cutOn, 100*cutR, 100*cutS),
				ok:   cutOn > 0 && cutR > 0 && cutS > 0,
			}
		},
	},
	{
		text:   "Energy-aware schedulers make fewer spin-ups/downs than Static and Random, MWIS the fewest, at every rf ≥ 2",
		source: "Fig. 7, 15",
		traces: bothTraces,
		at: func(sw *ReplicationSweep) point {
			return replicated(func(rf int) point {
				s := spinOps(sw, rf, AlgoStatic)
				r, h := spinOps(sw, rf, AlgoRandom)/s, spinOps(sw, rf, AlgoHeuristic)/s
				w, m := spinOps(sw, rf, AlgoWSC)/s, spinOps(sw, rf, AlgoMWIS)/s
				return point{
					fmt.Sprintf("heuristic %.3f, WSC %.3f, MWIS %.3f, random %.3f × static", h, w, m, r),
					max(h, w) < min(1, r) && m < min(h, w), min(min(1, r)-max(h, w), min(h, w)-m),
				}
			})
		},
	},
	{
		text:   "Heuristic and WSC have lower mean response than Static and Random at every rf ≥ 2",
		source: "Fig. 8, 16",
		traces: bothTraces,
		at: func(sw *ReplicationSweep) point {
			return replicated(func(rf int) point {
				h, w := meanResponse(sw, rf, AlgoHeuristic), meanResponse(sw, rf, AlgoWSC)
				s, r := meanResponse(sw, rf, AlgoStatic), meanResponse(sw, rf, AlgoRandom)
				return point{
					fmt.Sprintf("heuristic %s, WSC %s, static %s, random %s", ms(h), ms(w), ms(s), ms(r)),
					max(h, w) < min(s, r), (min(s, r) - max(h, w)).Seconds(),
				}
			})
		},
	},
	{
		text:   "Static's energy is flat across rf 1–5 (within 10%) and Random's rises at every step",
		source: "Fig. 6, 14",
		traces: bothTraces,
		at: func(sw *ReplicationSweep) point {
			lo, hi := math.Inf(1), math.Inf(-1)
			rises := true
			for _, rf := range sw.RFs {
				s := energy(sw, rf, AlgoStatic)
				lo, hi = min(lo, s), max(hi, s)
				if rf > sw.RFs[0] {
					rises = rises && energy(sw, rf, AlgoRandom) > energy(sw, rf-1, AlgoRandom)
				}
			}
			first, last := sw.RFs[0], sw.RFs[len(sw.RFs)-1]
			return point{
				text: fmt.Sprintf("static %.3f–%.3f, random %.3f → %.3f", lo, hi,
					energy(sw, first, AlgoRandom), energy(sw, last, AlgoRandom)),
				ok: hi <= 1.1*lo && rises,
			}
		},
	},
	{
		text:   "Heuristic, WSC and MWIS energy falls at every rf step",
		source: "Fig. 6, 14",
		traces: bothTraces,
		at: func(sw *ReplicationSweep) point {
			falls := true
			var parts []string
			for _, algo := range []string{AlgoHeuristic, AlgoWSC, AlgoMWIS} {
				for _, rf := range sw.RFs[1:] {
					falls = falls && energy(sw, rf, algo) < energy(sw, rf-1, algo)
				}
				parts = append(parts, fmt.Sprintf("%s %.3f → %.3f", shortName(algo),
					energy(sw, sw.RFs[0], algo), energy(sw, sw.RFs[len(sw.RFs)-1], algo)))
			}
			return point{text: strings.Join(parts, ", "), ok: falls}
		},
	},
	{
		text:      "Offline MWIS uses no more energy than WSC at every rf ≥ 2 (Financial1)",
		source:    "Fig. 14",
		deviation: "the reduction caps each request's successors at 4 (MWISSuccessors); uncapped, MWIS uses 7.6% less energy at rf 5",
		traces:    []Trace{Financial},
		at:        mwisVsWSC,
	},
	{
		text:      "2CPM alone (Static at rf 1) uses ≈0.88 of the always-on energy",
		source:    "Fig. 6",
		deviation: "the synthetic Cello-like trace leaves more idle gaps per disk than real Cello, so 2CPM alone saves about half",
		traces:    celloOnly,
		at: func(sw *ReplicationSweep) point {
			s := energy(sw, 1, AlgoStatic)
			return point{text: fmt.Sprintf("static %.3f", s), ok: math.Abs(s-0.88) <= 0.05}
		},
	},
	{
		text:      "Fewer than 1% of requests wait out a spin-up at rf 3",
		source:    "App. A.3, Fig. 12",
		deviation: "the synthetic trace is sparser per disk, so more requests find their disk in standby",
		traces:    celloOnly,
		at: func(sw *ReplicationSweep) point {
			var parts []string
			worst := 0.0
			for _, algo := range onlineAlgos() {
				r, _ := sw.Get(3, algo)
				tail := r.Response.CCDF([]time.Duration{time.Second})[0]
				worst = max(worst, tail)
				parts = append(parts, fmt.Sprintf("%s %.1f%%", shortName(algo), 100*tail))
			}
			return point{text: "share over 1 s: " + strings.Join(parts, ", "), ok: worst < 0.01}
		},
	},
	{
		text:      "Heuristic and WSC p90 response is at most 140 ms at every rf",
		source:    "App. A.3, Fig. 13",
		deviation: "more than 10% of requests wait out a spin-up (row above), so p90 sits at the ~10 s spin-up boundary",
		traces:    celloOnly,
		at: func(sw *ReplicationSweep) point {
			return responseRange(sw, []string{AlgoHeuristic, AlgoWSC},
				func(r Run) time.Duration { return r.P90 }, 0, 140*time.Millisecond)
		},
	},
	{
		text:      "Financial1's mean response is ~300 ms (150–600 ms) for every scheduler at every rf",
		source:    "App. A.4, Fig. 16",
		deviation: "as on Cello, spin-up waits dominate the mean on the sparser synthetic trace",
		traces:    []Trace{Financial},
		at: func(sw *ReplicationSweep) point {
			return responseRange(sw, onlineAlgos(),
				func(r Run) time.Duration { return r.Mean }, 150*time.Millisecond, 600*time.Millisecond)
		},
	},
}

// Claims evaluates the paper-claims table on the Cello and Financial1
// replication sweeps at scale s. It returns the table and the claims whose
// verdict differs from the status the table declares for them; at
// FullScale there are none.
func Claims(s Scale) (*Table, []string, error) {
	sweeps := map[Trace]*ReplicationSweep{}
	for _, tr := range bothTraces {
		sw, err := SweepReplication(s, tr)
		if err != nil {
			return nil, nil, err
		}
		sweeps[tr] = sw
	}
	t := &Table{
		Title: fmt.Sprintf("Paper claims (%d disks, %d requests over %d blocks, seed %d)",
			s.NumDisks, s.NumRequests, s.NumBlocks, s.Seed),
		Header: []string{"claim", "source", "measured", "verdict", "declared"},
	}
	var off []string
	for _, cl := range claims {
		var measured []string
		holds := true
		for _, tr := range cl.traces {
			p := cl.at(sweeps[tr])
			measured = append(measured, tr.String()+" "+p.text)
			holds = holds && p.ok
		}
		verdict, declared := "fails", "holds"
		if holds {
			verdict = "holds"
		}
		if cl.deviation != "" {
			declared = "deviation: " + cl.deviation
		}
		if holds != (cl.deviation == "") {
			off = append(off, fmt.Sprintf("%q %s, declared %s", cl.text, verdict, declared))
		}
		t.AddRow(cl.text, cl.source, strings.Join(measured, "; "), verdict, declared)
	}
	return t, off, nil
}

// point is a claim checked at one place: what was measured there, whether
// the claim holds, and, for a claim checked at every replication factor
// (replicated), by how much it holds there.
type point struct {
	text   string
	ok     bool
	margin float64
}

// replicated checks a claim at every replication factor above 1. It
// reports every factor where the claim fails, or else the one where it
// holds by the smallest margin.
func replicated(at func(rf int) point) point {
	var fails []string
	tight := point{ok: true, margin: math.Inf(1)}
	for _, rf := range ReplicationFactors()[1:] {
		p := at(rf)
		p.text = fmt.Sprintf("rf %d: %s", rf, p.text)
		if !p.ok {
			fails = append(fails, p.text)
		} else if p.margin < tight.margin {
			tight = p
		}
	}
	if len(fails) > 0 {
		return point{text: strings.Join(fails, "; ")}
	}
	return tight
}

// mwisVsWSC checks that the offline MWIS schedule uses no more energy
// than WSC at every replication factor above 1.
func mwisVsWSC(sw *ReplicationSweep) point {
	return replicated(func(rf int) point {
		m, w := energy(sw, rf, AlgoMWIS), energy(sw, rf, AlgoWSC)
		return point{fmt.Sprintf("MWIS %.3f, WSC %.3f", m, w), m <= w, w - m}
	})
}

// responseRange checks that a response-time statistic of the given
// algorithms lies in [lo, hi] at every replication factor.
func responseRange(sw *ReplicationSweep, algos []string, stat func(Run) time.Duration, lo, hi time.Duration) point {
	least, most := time.Duration(math.MaxInt64), time.Duration(0)
	for _, rf := range sw.RFs {
		for _, algo := range algos {
			r, _ := sw.Get(rf, algo)
			least, most = min(least, stat(r)), max(most, stat(r))
		}
	}
	return point{text: fmt.Sprintf("%s–%s", ms(least), ms(most)), ok: least >= lo && most <= hi}
}

func energy(sw *ReplicationSweep, rf int, algo string) float64 {
	r, _ := sw.Get(rf, algo)
	return r.NormEnergy
}

func spinOps(sw *ReplicationSweep, rf int, algo string) float64 {
	r, _ := sw.Get(rf, algo)
	return float64(r.SpinUps + r.SpinDowns)
}

func meanResponse(sw *ReplicationSweep, rf int, algo string) time.Duration {
	r, _ := sw.Get(rf, algo)
	return r.Mean
}

// ms renders a response time to the millisecond, as Figures 8 and 13 do.
func ms(d time.Duration) string { return d.Round(time.Millisecond).String() }

// shortName names an algorithm without the "energy-aware" prefix.
func shortName(algo string) string { return strings.TrimPrefix(algo, "energy-aware ") }
