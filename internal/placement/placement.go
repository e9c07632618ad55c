// Package placement models the data placement manager of Section 2.1: it
// maps each block to its replica locations L = {l_1 ... l_M}. The scheduler
// never moves data — it only reads this layout (the paper's central design
// point) — so the package is read-only after construction.
//
// The evaluation layout (Section 4.2) puts each block's original location on
// a disk drawn from a Zipf(z) distribution over disk ranks and spreads the
// remaining replicas uniformly over distinct disks.
package placement

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/core"
)

// Placement is an immutable block -> replica-locations map over a fixed
// disk population. Index 0 of each location list is the block's original
// location; the rest are replicas.
//
// The lists are stored once, in compressed-row form: block b's replicas
// are disks[off[b]:off[b+1]]. A lookup reads two offsets and the row, with
// no per-block slice header to chase, and the serving router reads this
// table in place.
type Placement struct {
	numDisks int
	off      []int32 // len NumBlocks+1; off[0] = 0
	disks    []core.DiskID
}

// New builds a placement from explicit locations (used by the paper's
// worked examples and by tests). locs[b] lists the disks holding block b.
func New(numDisks int, locs [][]core.DiskID) (*Placement, error) {
	if numDisks <= 0 {
		return nil, fmt.Errorf("placement: need at least one disk, got %d", numDisks)
	}
	n := 0
	for b, ds := range locs {
		if len(ds) == 0 {
			return nil, fmt.Errorf("placement: block %d has no locations", b)
		}
		for k, d := range ds {
			if d < 0 || int(d) >= numDisks {
				return nil, fmt.Errorf("placement: block %d on invalid disk %d", b, d)
			}
			// A block lists a handful of replicas: scanning its own prefix
			// beats building a set per block.
			if slices.Contains(ds[:k], d) {
				return nil, fmt.Errorf("placement: block %d lists disk %d twice", b, d)
			}
		}
		n += len(ds)
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("placement: %d replicas exceed the table's int32 offsets", n)
	}
	p := &Placement{numDisks: numDisks, off: make([]int32, 1, len(locs)+1), disks: make([]core.DiskID, 0, n)}
	for _, ds := range locs {
		p.disks = append(p.disks, ds...)
		p.off = append(p.off, int32(len(p.disks)))
	}
	return p, nil
}

// NumDisks returns the disk population size K.
func (p *Placement) NumDisks() int { return p.numDisks }

// NumBlocks returns the number of placed blocks M.
func (p *Placement) NumBlocks() int { return len(p.off) - 1 }

// Locations returns the replica locations of a block (original first). The
// caller must not modify the returned slice; its capacity ends at the
// block's last replica, so an append copies instead of overwriting the
// next block. Unknown blocks return nil. Safe for concurrent callers.
func (p *Placement) Locations(b core.BlockID) []core.DiskID {
	if uint64(b) >= uint64(len(p.off)-1) {
		return nil
	}
	lo, hi := p.off[b], p.off[b+1]
	return p.disks[lo:hi:hi]
}

// Original returns the block's original (first) location.
func (p *Placement) Original(b core.BlockID) core.DiskID {
	ls := p.Locations(b)
	if len(ls) == 0 {
		return core.InvalidDisk
	}
	return ls[0]
}

// GenerateConfig parameterizes the synthetic layout of Section 4.2.
type GenerateConfig struct {
	NumDisks          int
	NumBlocks         int
	ReplicationFactor int     // total copies per block, >= 1
	ZipfExponent      float64 // z in p = c/r^z; 0 = uniform originals, 1 = Zipf
	Seed              int64
}

// Generate builds the evaluation layout: original locations Zipf(z)-skewed
// over a seeded random permutation of disk ranks (so the hot disks are not
// always the low IDs), replicas uniform over the remaining disks, all
// copies of a block on distinct disks.
func Generate(cfg GenerateConfig) (*Placement, error) {
	switch {
	case cfg.NumDisks <= 0:
		return nil, fmt.Errorf("placement: NumDisks = %d", cfg.NumDisks)
	case cfg.NumBlocks < 0:
		return nil, fmt.Errorf("placement: NumBlocks = %d", cfg.NumBlocks)
	case cfg.ReplicationFactor < 1:
		return nil, fmt.Errorf("placement: ReplicationFactor = %d", cfg.ReplicationFactor)
	case cfg.ReplicationFactor > cfg.NumDisks:
		return nil, fmt.Errorf("placement: replication factor %d exceeds disk count %d",
			cfg.ReplicationFactor, cfg.NumDisks)
	case cfg.ZipfExponent < 0 || math.IsNaN(cfg.ZipfExponent):
		return nil, fmt.Errorf("placement: ZipfExponent = %v", cfg.ZipfExponent)
	case cfg.NumBlocks > math.MaxInt32/cfg.ReplicationFactor:
		return nil, fmt.Errorf("placement: %d blocks × %d replicas exceed the table's int32 offsets",
			cfg.NumBlocks, cfg.ReplicationFactor)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Rank permutation: rankToDisk[r] is the disk holding popularity rank r.
	rankToDisk := rng.Perm(cfg.NumDisks)
	zipf := NewZipf(cfg.NumDisks, cfg.ZipfExponent)

	// Each row is written straight into the table. Its disks are in range
	// and distinct by construction, so New's validation pass is not needed.
	rf := cfg.ReplicationFactor
	p := &Placement{
		numDisks: cfg.NumDisks,
		off:      make([]int32, cfg.NumBlocks+1),
		disks:    make([]core.DiskID, cfg.NumBlocks*rf),
	}
	for b := 0; b < cfg.NumBlocks; b++ {
		ds := p.disks[b*rf : b*rf : (b+1)*rf]
		ds = append(ds, core.DiskID(rankToDisk[zipf.Sample(rng)]))
		for len(ds) < rf {
			d := core.DiskID(rng.Intn(cfg.NumDisks))
			if !slices.Contains(ds, d) {
				ds = append(ds, d)
			}
		}
		p.off[b+1] = int32((b + 1) * rf)
	}
	return p, nil
}

// LoadSkew returns, per disk, the number of blocks whose original location
// is that disk — a direct view of the Zipf skew used in Figures 9 and 10.
func (p *Placement) LoadSkew() []int {
	counts := make([]int, p.numDisks)
	for _, lo := range p.off[:len(p.off)-1] {
		counts[p.disks[lo]]++
	}
	return counts
}

// Zipf samples ranks 0..n-1 with P(r) proportional to 1/(r+1)^z. Unlike
// math/rand's Zipf it supports any exponent z >= 0 (the paper sweeps
// z in [0,1], Appendix A.1) via an inverse-CDF table.
//
// A guide table narrows each draw's search: a draw u falls in bucket
// k = bucket(u), and guide[k]..guide[k+1] bound every rank whose CDF
// interval meets that bucket, so Sample binary-searches only that window
// and returns exactly the rank a search over the whole table would.
type Zipf struct {
	cdf   []float64
	guide []int32 // len n+1: guide[k] is the first rank r with bucket(cdf[r]) >= k
}

// NewZipf builds a sampler over n ranks with exponent z.
func NewZipf(n int, z float64) *Zipf {
	if n <= 0 {
		panic(fmt.Sprintf("placement: Zipf over %d ranks", n))
	}
	if z < 0 || math.IsNaN(z) {
		panic(fmt.Sprintf("placement: Zipf exponent %v", z))
	}
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("placement: Zipf over %d ranks exceeds the int32 guide", n))
	}
	cdf := make([]float64, n)
	total := 0.0
	for r := 0; r < n; r++ {
		total += 1 / math.Pow(float64(r+1), z)
		cdf[r] = total
	}
	for r := range cdf {
		cdf[r] /= total
	}
	cdf[n-1] = 1 // guard against rounding
	zp := &Zipf{cdf: cdf, guide: make([]int32, n+1)}
	// bucket is monotone in u, so the first rank reaching each bucket
	// comes out of one pass; bucket(1) = n-1, so every k < n is set here.
	k := 0
	for r, c := range cdf {
		for ; k <= zp.bucket(c); k++ {
			zp.guide[k] = int32(r)
		}
	}
	zp.guide[n] = int32(n - 1)
	return zp
}

// bucket maps a CDF value to its guide slot, clamped to [0, n-1]. Sample
// and NewZipf must compute it the same way: the guide's bounds hold for
// this function, rounding included, not for the exact product u*n.
func (zp *Zipf) bucket(u float64) int {
	return min(int(u*float64(len(zp.cdf))), len(zp.cdf)-1)
}

// Sample draws a rank using the provided source. It consumes exactly one
// rng.Float64.
func (zp *Zipf) Sample(rng *rand.Rand) int { return zp.rank(rng.Float64()) }

// rank returns the first rank r with cdf[r] >= u, for u in [0, 1).
//
// Why the window holds the answer r: u <= cdf[r], so bucket(cdf[r]) >=
// bucket(u) = k and r >= guide[k]; and, for r > 0, cdf[r-1] < u, so
// bucket(cdf[r-1]) <= k and r-1 < guide[k+1] (or guide[k+1] = n-1 when no
// rank reaches bucket k+1).
func (zp *Zipf) rank(u float64) int {
	k := zp.bucket(u)
	lo, hi := int(zp.guide[k]), int(zp.guide[k+1])
	for lo < hi {
		mid := (lo + hi) / 2
		if zp.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// P returns the probability mass of rank r.
func (zp *Zipf) P(r int) float64 {
	if r < 0 || r >= len(zp.cdf) {
		return 0
	}
	if r == 0 {
		return zp.cdf[0]
	}
	return zp.cdf[r] - zp.cdf[r-1]
}
