package dpm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/power"
)

func TestGapCostRegions(t *testing.T) {
	t.Parallel()
	cfg := power.DefaultConfig()
	tau := 10 * time.Second
	// Gap shorter than the threshold: pure idle energy.
	if got, want := GapCost(cfg, 4*time.Second, tau), 4*cfg.IdlePower; math.Abs(got-want) > 1e-9 {
		t.Errorf("short gap cost = %v, want %v", got, want)
	}
	// Gap at the threshold boundary: still idle-only.
	if got, want := GapCost(cfg, tau, tau), 10*cfg.IdlePower; math.Abs(got-want) > 1e-9 {
		t.Errorf("boundary gap cost = %v, want %v", got, want)
	}
	// Long gap: threshold idle + cycle + standby remainder.
	got := GapCost(cfg, 100*time.Second, tau)
	want := 10*cfg.IdlePower + cfg.UpDownEnergy() + 90*cfg.StandbyPower
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("long gap cost = %v, want %v", got, want)
	}
	// Negative threshold: never spin down.
	if got, want := GapCost(cfg, 100*time.Second, -1), 100*cfg.IdlePower; math.Abs(got-want) > 1e-9 {
		t.Errorf("never-spin cost = %v, want %v", got, want)
	}
}

func TestGapCostPanicsOnNegativeGap(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	GapCost(power.DefaultConfig(), -time.Second, 0)
}

func TestOracleTakesCheaperBranch(t *testing.T) {
	t.Parallel()
	cfg := power.DefaultConfig()
	short := time.Second
	long := time.Hour
	if got, want := OracleGapCost(cfg, short), short.Seconds()*cfg.IdlePower; math.Abs(got-want) > 1e-9 {
		t.Errorf("oracle short gap = %v, want idle %v", got, want)
	}
	want := cfg.UpDownEnergy() + long.Seconds()*cfg.StandbyPower
	if got := OracleGapCost(cfg, long); math.Abs(got-want) > 1e-9 {
		t.Errorf("oracle long gap = %v, want cycle %v", got, want)
	}
}

func TestOptimalThreshold(t *testing.T) {
	t.Parallel()
	cfg := power.DefaultConfig()
	want := cfg.UpDownEnergy() / (cfg.IdlePower - cfg.StandbyPower)
	if got := OptimalThreshold(cfg).Seconds(); math.Abs(got-want) > 1e-6 {
		t.Errorf("tau* = %v, want %v", got, want)
	}
	// Zero standby power: coincides with the power package's breakeven.
	cfg.StandbyPower = 0
	if got, want := OptimalThreshold(cfg), cfg.Breakeven(); got != want {
		t.Errorf("tau* = %v, want breakeven %v", got, want)
	}
	// Standby draws as much as idle: sleeping never pays.
	cfg.StandbyPower = cfg.IdlePower
	if got := OptimalThreshold(cfg); got >= 0 {
		t.Errorf("tau* = %v, want negative (never spin down)", got)
	}
}

// The paper's Section 1 claim: the fixed breakeven threshold is
// 2-competitive against the offline oracle, for arbitrary gap sequences.
func TestTwoCompetitiveProperty(t *testing.T) {
	t.Parallel()
	cfg := power.DefaultConfig()
	policy := Fixed{Tau: OptimalThreshold(cfg)}
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		gaps := make([]time.Duration, int(n)%50+1)
		for i := range gaps {
			gaps[i] = time.Duration(rng.Int63n(int64(5 * time.Minute)))
		}
		return CompetitiveRatio(cfg, gaps, policy) <= 2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// The bound is tight: a gap just past tau* forces the worst ratio, which
// is exactly 2 - P_s/P_I (and exactly 2 when standby power is zero).
func TestTwoCompetitiveBoundIsTight(t *testing.T) {
	t.Parallel()
	cfg := power.DefaultConfig()
	tau := OptimalThreshold(cfg)
	ratio := CompetitiveRatio(cfg, []time.Duration{tau + time.Nanosecond}, Fixed{Tau: tau})
	want := 2 - cfg.StandbyPower/cfg.IdlePower
	if math.Abs(ratio-want) > 1e-3 {
		t.Errorf("adversarial ratio = %v, want %v", ratio, want)
	}

	zeroStandby := cfg
	zeroStandby.StandbyPower = 0
	tau0 := OptimalThreshold(zeroStandby)
	ratio0 := CompetitiveRatio(zeroStandby, []time.Duration{tau0 + time.Nanosecond}, Fixed{Tau: tau0})
	if math.Abs(ratio0-2) > 1e-3 {
		t.Errorf("zero-standby adversarial ratio = %v, want 2", ratio0)
	}
}

// No fixed threshold beats the oracle, and extreme policies are strictly
// worse on mixed workloads.
func TestPolicyOrderingOnMixedGaps(t *testing.T) {
	t.Parallel()
	cfg := power.DefaultConfig()
	tau := OptimalThreshold(cfg)
	// Alternate short (idle-friendly) and long (sleep-friendly) gaps.
	var gaps []time.Duration
	for i := 0; i < 50; i++ {
		gaps = append(gaps, 2*time.Second, 10*time.Minute)
	}
	oracle := OracleCost(cfg, gaps)
	breakeven := PolicyCost(cfg, gaps, Fixed{Tau: tau})
	never := PolicyCost(cfg, gaps, NeverSpinDown{})
	immediate := PolicyCost(cfg, gaps, Immediate{})
	if breakeven < oracle-1e-9 {
		t.Error("fixed threshold beat the oracle")
	}
	if never <= breakeven {
		t.Errorf("always-on (%v) should lose to breakeven (%v) on long gaps", never, breakeven)
	}
	if immediate <= oracle-1e-9 {
		t.Error("immediate spin-down beat the oracle")
	}
}

func TestEWMAPredictiveBeatsFixedOnBimodalWorkload(t *testing.T) {
	t.Parallel()
	// A strongly autocorrelated workload: long runs of short gaps, then
	// long runs of long gaps. The predictor sleeps immediately during the
	// long-gap regime and saves the breakeven idle energy each time.
	cfg := power.DefaultConfig()
	tau := OptimalThreshold(cfg)
	var gaps []time.Duration
	for block := 0; block < 10; block++ {
		for i := 0; i < 20; i++ {
			gaps = append(gaps, time.Second)
		}
		for i := 0; i < 20; i++ {
			gaps = append(gaps, 5*time.Minute)
		}
	}
	fixed := PolicyCost(cfg, gaps, Fixed{Tau: tau})
	ewma := PolicyCost(cfg, gaps, EWMAPredictive{Alpha: 0.5, Breakeven: tau})
	if ewma >= fixed {
		t.Errorf("EWMA (%v) did not beat fixed (%v) on bimodal gaps", ewma, fixed)
	}
	// And it must stay 2-competitive-ish: never catastrophically worse.
	oracle := OracleCost(cfg, gaps)
	if ewma > 2.5*oracle {
		t.Errorf("EWMA ratio %.2f too far from oracle", ewma/oracle)
	}
}

func TestEWMAPanicsOnBadAlpha(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	EWMAPredictive{Alpha: 0}.Start()
}

// quadraticEWMACost is the EWMA policy's cost as a per-gap refold of the
// whole history: the threshold for gap i recomputes the average over
// gaps[:i] from scratch. It is the reference the one-pass PolicyCost must
// match bit for bit.
func quadraticEWMACost(cfg power.Config, gaps []time.Duration, p EWMAPredictive) float64 {
	total := 0.0
	for i, g := range gaps {
		tau := p.Breakeven
		if i > 0 {
			pred := float64(gaps[0])
			for _, h := range gaps[1:i] {
				pred = p.Alpha*float64(h) + (1-p.Alpha)*pred
			}
			if time.Duration(pred) > p.Breakeven {
				tau = 0
			}
		}
		total += GapCost(cfg, g, tau)
	}
	return total
}

func TestEWMAPolicyCostMatchesQuadraticFold(t *testing.T) {
	t.Parallel()
	cfg := power.DefaultConfig()
	tau := OptimalThreshold(cfg)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		gaps := make([]time.Duration, rng.Intn(300))
		for i := range gaps {
			// Mostly around the breakeven threshold, so the prediction
			// crosses it often, with occasional very long gaps.
			gaps[i] = time.Duration(rng.Int63n(int64(3 * tau)))
			if rng.Intn(20) == 0 {
				gaps[i] = time.Duration(rng.Int63n(int64(time.Hour)))
			}
		}
		p := EWMAPredictive{Alpha: []float64{0.1, 0.3, 0.5, 0.9, 1}[trial%5], Breakeven: tau}
		got, want := PolicyCost(cfg, gaps, p), quadraticEWMACost(cfg, gaps, p)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d (%d gaps, alpha %v): one-pass cost %v != refold %v", trial, len(gaps), p.Alpha, got, want)
		}
	}
}

// TestEWMAPolicyCostIsLinear pins the one-pass evaluation: 100k gaps, on
// which the per-gap refold makes 5e9 multiply-adds, cost well under a
// second.
func TestEWMAPolicyCostIsLinear(t *testing.T) {
	t.Parallel()
	cfg := power.DefaultConfig()
	rng := rand.New(rand.NewSource(8))
	gaps := make([]time.Duration, 100_000)
	for i := range gaps {
		gaps[i] = time.Duration(rng.Int63n(int64(time.Minute)))
	}
	start := time.Now()
	PolicyCost(cfg, gaps, EWMAPredictive{Alpha: 0.5, Breakeven: OptimalThreshold(cfg)})
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Fatalf("100k gaps took %s", took)
	}
}

func TestCompetitiveRatioEdgeCases(t *testing.T) {
	t.Parallel()
	cfg := power.DefaultConfig()
	if got := CompetitiveRatio(cfg, nil, Fixed{}); got != 1 {
		t.Errorf("empty sequence ratio = %v, want 1", got)
	}
	if got := CompetitiveRatio(cfg, []time.Duration{0}, Fixed{Tau: time.Second}); got != 1 {
		t.Errorf("zero-gap ratio = %v, want 1", got)
	}
}

func TestGaps(t *testing.T) {
	t.Parallel()
	times := []time.Duration{time.Second, 3 * time.Second, 10 * time.Second}
	got := Gaps(times)
	want := []time.Duration{2 * time.Second, 7 * time.Second}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("Gaps = %v, want %v", got, want)
	}
	if Gaps(times[:1]) != nil {
		t.Error("single time should have no gaps")
	}
	defer func() {
		if recover() == nil {
			t.Error("no panic on unsorted times")
		}
	}()
	Gaps([]time.Duration{5 * time.Second, time.Second})
}

func TestPolicyNames(t *testing.T) {
	t.Parallel()
	for _, p := range []GapPolicy{Fixed{Tau: time.Second}, NeverSpinDown{}, Immediate{}, EWMAPredictive{Alpha: 0.3}} {
		if p.Name() == "" {
			t.Errorf("%T has empty name", p)
		}
	}
}

func BenchmarkPolicyCostFixed(b *testing.B) {
	cfg := power.DefaultConfig()
	rng := rand.New(rand.NewSource(1))
	gaps := make([]time.Duration, 10000)
	for i := range gaps {
		gaps[i] = time.Duration(rng.Int63n(int64(time.Minute)))
	}
	p := Fixed{Tau: OptimalThreshold(cfg)}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PolicyCost(cfg, gaps, p)
	}
}
