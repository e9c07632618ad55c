// Package workload generates synthetic request streams standing in for the
// paper's evaluation traces (Section 4.1).
//
// The real Cello (HP Labs) and Financial1 (UMass/SPC) traces are not
// redistributable, so this package generates streams matching the
// characteristics the paper's results depend on: the request count (70,000)
// and unique-block count (>30,000), Zipf-skewed block popularity, and the
// arrival-process shape — Cello is bursty with heavy-tailed quiet gaps
// (the paper attributes its ~1 s mean response time to this burstiness,
// Appendix A.4) while Financial1 is a smoother OLTP stream (~300 ms mean
// response). Real traces can still be used via the parsers in
// internal/trace.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/placement"
)

// ArrivalProcess produces successive inter-arrival gaps.
type ArrivalProcess interface {
	// NextGap returns the gap between the previous request and the next.
	NextGap(rng *rand.Rand) time.Duration
	// Name identifies the process in reports.
	Name() string
}

// Poisson is a memoryless arrival process with the given mean rate.
type Poisson struct {
	Rate float64 // requests per second
}

// NextGap implements ArrivalProcess.
func (p Poisson) NextGap(rng *rand.Rand) time.Duration {
	if p.Rate <= 0 {
		panic(fmt.Sprintf("workload: Poisson rate %v", p.Rate))
	}
	return time.Duration(rng.ExpFloat64() / p.Rate * float64(time.Second))
}

// Name implements ArrivalProcess.
func (p Poisson) Name() string { return fmt.Sprintf("poisson(%.2f/s)", p.Rate) }

// BurstyOnOff models self-similar traffic: bursts of requests arriving at
// BurstRate with geometrically distributed length, separated by
// Pareto-distributed quiet gaps (heavy tail, like Cello).
type BurstyOnOff struct {
	BurstRate     float64       // requests/second inside a burst
	MeanBurstLen  float64       // mean requests per burst (geometric)
	OffShape      float64       // Pareto tail index alpha (>1 for finite mean)
	OffScale      time.Duration // Pareto minimum gap
	remainInBurst int
}

// NextGap implements ArrivalProcess.
func (b *BurstyOnOff) NextGap(rng *rand.Rand) time.Duration {
	if b.BurstRate <= 0 || b.MeanBurstLen < 1 || b.OffShape <= 1 || b.OffScale <= 0 {
		panic(fmt.Sprintf("workload: invalid BurstyOnOff %+v", b))
	}
	if b.remainInBurst > 0 {
		b.remainInBurst--
		return time.Duration(rng.ExpFloat64() / b.BurstRate * float64(time.Second))
	}
	// Start a new burst after a Pareto OFF gap.
	b.remainInBurst = b.sampleBurstLen(rng) - 1
	gap := float64(b.OffScale) * math.Pow(1-rng.Float64(), -1/b.OffShape)
	return time.Duration(gap)
}

func (b *BurstyOnOff) sampleBurstLen(rng *rand.Rand) int {
	// Geometric with mean MeanBurstLen.
	p := 1 / b.MeanBurstLen
	n := 1
	for rng.Float64() > p {
		n++
	}
	return n
}

// Name implements ArrivalProcess.
func (b *BurstyOnOff) Name() string {
	return fmt.Sprintf("bursty(rate=%.0f/s burst=%.0f off~pareto(%.1f,%s))",
		b.BurstRate, b.MeanBurstLen, b.OffShape, b.OffScale)
}

// Diurnal modulates another arrival process with a day/night cycle:
// inter-arrival gaps are stretched when the diurnal intensity is low and
// compressed near the peak, producing the long quiet valleys datacenter
// traces show overnight. Intensity follows 1 + Amplitude*sin(2*pi*t/Period)
// with t advanced by each emitted gap.
type Diurnal struct {
	Base      ArrivalProcess
	Period    time.Duration // full day length in trace time
	Amplitude float64       // in [0,1): 0 = no modulation
	elapsed   time.Duration
}

// NextGap implements ArrivalProcess.
func (d *Diurnal) NextGap(rng *rand.Rand) time.Duration {
	if d.Base == nil || d.Period <= 0 || d.Amplitude < 0 || d.Amplitude >= 1 {
		panic(fmt.Sprintf("workload: invalid Diurnal %+v", d))
	}
	phase := 2 * math.Pi * float64(d.elapsed%d.Period) / float64(d.Period)
	intensity := 1 + d.Amplitude*math.Sin(phase)
	gap := time.Duration(float64(d.Base.NextGap(rng)) / intensity)
	d.elapsed += gap
	return gap
}

// Name implements ArrivalProcess.
func (d *Diurnal) Name() string {
	return fmt.Sprintf("diurnal(%s, %.0f%%, %s)", d.Base.Name(), d.Amplitude*100, d.Period)
}

// Config parameterizes synthetic stream generation.
type Config struct {
	NumRequests    int
	NumBlocks      int
	PopularityZipf float64 // skew of block popularity (~1 per [2])
	BlockSize      int64   // bytes per request; 0 uses 512 KB
	Arrivals       ArrivalProcess
	Seed           int64
}

// Generate produces a request stream sorted by arrival time with dense IDs.
func Generate(cfg Config) ([]core.Request, error) {
	switch {
	case cfg.NumRequests < 0:
		return nil, fmt.Errorf("workload: NumRequests = %d", cfg.NumRequests)
	case cfg.NumBlocks <= 0 && cfg.NumRequests > 0:
		return nil, fmt.Errorf("workload: NumBlocks = %d", cfg.NumBlocks)
	case cfg.Arrivals == nil:
		return nil, fmt.Errorf("workload: nil arrival process")
	case cfg.PopularityZipf < 0 || math.IsNaN(cfg.PopularityZipf):
		return nil, fmt.Errorf("workload: PopularityZipf = %v", cfg.PopularityZipf)
	}
	size := cfg.BlockSize
	if size == 0 {
		size = 512 << 10
	}
	if size < 0 {
		return nil, fmt.Errorf("workload: BlockSize = %d", size)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	pop := placement.NewZipf(cfg.NumBlocks, cfg.PopularityZipf)
	// A seeded permutation decouples a block's popularity rank from its ID.
	rankToBlock := rng.Perm(cfg.NumBlocks)

	reqs := make([]core.Request, cfg.NumRequests)
	now := time.Duration(0)
	for i := range reqs {
		if i > 0 {
			now += cfg.Arrivals.NextGap(rng)
		}
		block := core.BlockID(rankToBlock[pop.Sample(rng)])
		reqs[i] = core.Request{
			ID:      core.RequestID(i),
			Block:   block,
			Arrival: now,
			Size:    size,
			LBA:     blockLBA(block),
		}
	}
	return reqs, nil
}

// BlockLBA maps a block to its stable pseudo-random logical block address,
// the same mapping trace generation uses. The serving path (internal/serve)
// stamps it onto requests that arrive without an LBA so the disk
// service-time model sees identical seek distances live and in batch.
func BlockLBA(b core.BlockID) int64 { return blockLBA(b) }

// blockLBA maps a block to a stable pseudo-random LBA so the disk
// service-time model sees realistic seek distances.
func blockLBA(b core.BlockID) int64 {
	const maxLBA = 586072368
	x := uint64(b)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	return int64(x % maxLBA)
}

// CelloLike generates a bursty stream with the Cello trace's scale: by
// default 70,000 requests over 30,000+ blocks (Section 4.1) arriving in
// bursts separated by heavy-tailed quiet periods. It panics when
// numRequests < 0, or when numBlocks <= 0 and numRequests > 0; callers
// taking the sizes from flags check them first.
func CelloLike(numRequests, numBlocks int, seed int64) []core.Request {
	reqs, err := Generate(Config{
		NumRequests:    numRequests,
		NumBlocks:      numBlocks,
		PopularityZipf: 1,
		Arrivals: &BurstyOnOff{
			BurstRate:    100,
			MeanBurstLen: 60,
			OffShape:     1.3,
			OffScale:     time.Second,
		},
		Seed: seed,
	})
	if err != nil {
		panic(err) // only the sizes can be invalid
	}
	return reqs
}

// FinancialLike generates a smoother OLTP-style stream with the Financial1
// trace's scale: Poisson arrivals with moderate popularity skew. It panics
// on the sizes CelloLike panics on.
func FinancialLike(numRequests, numBlocks int, seed int64) []core.Request {
	reqs, err := Generate(Config{
		NumRequests:    numRequests,
		NumBlocks:      numBlocks,
		PopularityZipf: 0.8,
		Arrivals:       Poisson{Rate: 15},
		Seed:           seed,
	})
	if err != nil {
		panic(err) // only the sizes can be invalid
	}
	return reqs
}

// Stats summarizes a request stream's arrival characteristics.
type Stats struct {
	Count            int
	UniqueBlocks     int
	Duration         time.Duration
	MeanInterArrival time.Duration
	// CoV is the coefficient of variation of inter-arrival gaps; ~1 for
	// Poisson, >> 1 for bursty streams.
	CoV float64
}

// Analyze computes stream statistics.
func Analyze(reqs []core.Request) Stats {
	s := Stats{Count: len(reqs)}
	if len(reqs) == 0 {
		return s
	}
	blocks := make(map[core.BlockID]struct{})
	for _, r := range reqs {
		blocks[r.Block] = struct{}{}
	}
	s.UniqueBlocks = len(blocks)
	s.Duration = reqs[len(reqs)-1].Arrival - reqs[0].Arrival
	if len(reqs) < 2 {
		return s
	}
	mean := float64(s.Duration) / float64(len(reqs)-1)
	s.MeanInterArrival = time.Duration(mean)
	ss := 0.0
	for i := 1; i < len(reqs); i++ {
		gap := float64(reqs[i].Arrival - reqs[i-1].Arrival)
		ss += (gap - mean) * (gap - mean)
	}
	std := math.Sqrt(ss / float64(len(reqs)-2+1))
	if mean > 0 {
		s.CoV = std / mean
	}
	return s
}
