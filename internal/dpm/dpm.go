// Package dpm analyzes single-disk dynamic power management — the theory
// the paper's premise rests on (Section 1): a fixed idleness threshold of
// T_B = E_up/down / P_I makes the spin-down policy 2-competitive against
// an offline-optimal power manager [Irani et al.].
//
// The package evaluates policies over a disk's idle-gap sequence (the gaps
// between consecutive requests on one disk), provides the offline oracle,
// exact competitive-ratio measurement, and an adaptive (EWMA-predictive)
// policy as an extension. It deliberately ignores transition times —
// the classic ski-rental setting — so its numbers are analytic, not
// simulated; the event simulator in internal/storage covers the full
// model.
package dpm

import (
	"fmt"
	"math"
	"time"

	"repro/internal/power"
)

// GapPolicy decides, for each idle gap, how long to wait before spinning
// down. Policies may adapt using previously observed gaps.
type GapPolicy interface {
	// Start begins one gap sequence. It returns the idleness threshold for
	// the first gap and next, which is given each gap once it has passed
	// and returns the threshold for the gap after it, so a policy sees
	// only the gaps before the one it decides. A negative duration means
	// "never spin down" for that gap.
	Start() (first time.Duration, next func(observed time.Duration) time.Duration)
	// Name identifies the policy in reports.
	Name() string
}

// GapCost returns the energy spent over one idle gap when using threshold
// tau: idle power until min(gap, tau), then one spin-down/up cycle plus
// standby power for the remainder if the gap outlives the threshold.
// A negative tau never spins down.
func GapCost(cfg power.Config, gap, tau time.Duration) float64 {
	if gap < 0 {
		panic(fmt.Sprintf("dpm: negative gap %s", gap))
	}
	if tau < 0 || gap <= tau {
		return gap.Seconds() * cfg.IdlePower
	}
	return tau.Seconds()*cfg.IdlePower +
		cfg.UpDownEnergy() +
		(gap-tau).Seconds()*cfg.StandbyPower
}

// OracleGapCost returns the offline-optimal cost of one gap: with the gap
// length known in advance, either stay idle throughout or spin down
// immediately, whichever is cheaper.
func OracleGapCost(cfg power.Config, gap time.Duration) float64 {
	idle := gap.Seconds() * cfg.IdlePower
	cycle := cfg.UpDownEnergy() + gap.Seconds()*cfg.StandbyPower
	return math.Min(idle, cycle)
}

// OptimalThreshold returns the threshold tau* = E_up/down / (P_I - P_s)
// that makes the fixed-threshold policy 2-competitive. It coincides with
// power.Config.Breakeven when standby power is zero.
func OptimalThreshold(cfg power.Config) time.Duration {
	denom := cfg.IdlePower - cfg.StandbyPower
	if denom <= 0 {
		return -1 // spinning down can never pay off
	}
	return time.Duration(cfg.UpDownEnergy() / denom * float64(time.Second))
}

// PolicyCost evaluates a policy over a gap sequence in one pass.
func PolicyCost(cfg power.Config, gaps []time.Duration, p GapPolicy) float64 {
	total := 0.0
	tau, next := p.Start()
	for _, g := range gaps {
		total += GapCost(cfg, g, tau)
		tau = next(g)
	}
	return total
}

// OracleCost evaluates the offline-optimal manager over a gap sequence.
func OracleCost(cfg power.Config, gaps []time.Duration) float64 {
	total := 0.0
	for _, g := range gaps {
		total += OracleGapCost(cfg, g)
	}
	return total
}

// CompetitiveRatio returns PolicyCost / OracleCost over the gap sequence
// (1 when both are zero).
func CompetitiveRatio(cfg power.Config, gaps []time.Duration, p GapPolicy) float64 {
	opt := OracleCost(cfg, gaps)
	alg := PolicyCost(cfg, gaps, p)
	if opt == 0 {
		if alg == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return alg / opt
}

// Fixed is the fixed-threshold policy; with Tau = OptimalThreshold it is
// the paper's 2CPM.
type Fixed struct {
	Tau time.Duration
}

// Start implements GapPolicy.
func (f Fixed) Start() (time.Duration, func(time.Duration) time.Duration) { return constant(f.Tau) }

// Name implements GapPolicy.
func (f Fixed) Name() string { return fmt.Sprintf("fixed(%s)", f.Tau) }

// NeverSpinDown keeps the disk idle through every gap (always-on).
type NeverSpinDown struct{}

// Start implements GapPolicy.
func (NeverSpinDown) Start() (time.Duration, func(time.Duration) time.Duration) { return constant(-1) }

// Name implements GapPolicy.
func (NeverSpinDown) Name() string { return "never" }

// Immediate spins down the instant the disk goes idle (aggressive).
type Immediate struct{}

// Start implements GapPolicy.
func (Immediate) Start() (time.Duration, func(time.Duration) time.Duration) { return constant(0) }

// Name implements GapPolicy.
func (Immediate) Name() string { return "immediate" }

// constant starts a sequence whose every gap gets threshold tau.
func constant(tau time.Duration) (time.Duration, func(time.Duration) time.Duration) {
	return tau, func(time.Duration) time.Duration { return tau }
}

// EWMAPredictive adapts the threshold from an exponentially weighted
// moving average of past gaps (the "prediction technique" the paper's
// Section 3.3 sketches as future work): when the predicted next gap
// exceeds the breakeven threshold it spins down immediately, otherwise it
// waits the full 2-competitive threshold as a safety net.
type EWMAPredictive struct {
	// Alpha is the smoothing factor in (0,1]; larger reacts faster.
	Alpha float64
	// Breakeven is the protective threshold (tau* of the power model).
	Breakeven time.Duration
}

// Start implements GapPolicy. The average starts at the first observed
// gap and folds in each later one as it passes, so a sequence of n gaps
// costs O(n).
func (p EWMAPredictive) Start() (time.Duration, func(time.Duration) time.Duration) {
	if p.Alpha <= 0 || p.Alpha > 1 {
		panic(fmt.Sprintf("dpm: EWMA alpha %v outside (0,1]", p.Alpha))
	}
	var pred float64
	seen := false
	return p.Breakeven, func(g time.Duration) time.Duration {
		if seen {
			pred = p.Alpha*float64(g) + (1-p.Alpha)*pred
		} else {
			pred, seen = float64(g), true
		}
		if time.Duration(pred) > p.Breakeven {
			return 0 // expect a long gap: sleep immediately
		}
		return p.Breakeven
	}
}

// Name implements GapPolicy.
func (p EWMAPredictive) Name() string { return fmt.Sprintf("ewma(%.2f)", p.Alpha) }

var (
	_ GapPolicy = Fixed{}
	_ GapPolicy = NeverSpinDown{}
	_ GapPolicy = Immediate{}
	_ GapPolicy = EWMAPredictive{}
)

// Gaps extracts the idle-gap sequence from a sorted slice of request times
// on one disk.
func Gaps(times []time.Duration) []time.Duration {
	if len(times) < 2 {
		return nil
	}
	out := make([]time.Duration, 0, len(times)-1)
	for i := 1; i < len(times); i++ {
		g := times[i] - times[i-1]
		if g < 0 {
			panic(fmt.Sprintf("dpm: unsorted request times at %d", i))
		}
		out = append(out, g)
	}
	return out
}
