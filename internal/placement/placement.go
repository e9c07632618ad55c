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
type Placement struct {
	numDisks int
	locs     [][]core.DiskID
}

// New builds a placement from explicit locations (used by the paper's
// worked examples and by tests). locs[b] lists the disks holding block b.
func New(numDisks int, locs [][]core.DiskID) (*Placement, error) {
	if numDisks <= 0 {
		return nil, fmt.Errorf("placement: need at least one disk, got %d", numDisks)
	}
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
	}
	return &Placement{numDisks: numDisks, locs: locs}, nil
}

// NumDisks returns the disk population size K.
func (p *Placement) NumDisks() int { return p.numDisks }

// NumBlocks returns the number of placed blocks M.
func (p *Placement) NumBlocks() int { return len(p.locs) }

// Locations returns the replica locations of a block (original first). The
// caller must not modify the returned slice. Unknown blocks return nil.
func (p *Placement) Locations(b core.BlockID) []core.DiskID {
	if b < 0 || int(b) >= len(p.locs) {
		return nil
	}
	return p.locs[b]
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
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Rank permutation: rankToDisk[r] is the disk holding popularity rank r.
	rankToDisk := rng.Perm(cfg.NumDisks)
	zipf := NewZipf(cfg.NumDisks, cfg.ZipfExponent)

	// Every block's list is a slice of one flat array, each capped at its
	// own rf entries.
	rf := cfg.ReplicationFactor
	flat := make([]core.DiskID, cfg.NumBlocks*rf)
	locs := make([][]core.DiskID, cfg.NumBlocks)
	for b := range locs {
		ds := flat[b*rf : b*rf : (b+1)*rf]
		ds = append(ds, core.DiskID(rankToDisk[zipf.Sample(rng)]))
		for len(ds) < rf {
			d := core.DiskID(rng.Intn(cfg.NumDisks))
			if !slices.Contains(ds, d) {
				ds = append(ds, d)
			}
		}
		locs[b] = ds
	}
	return New(cfg.NumDisks, locs)
}

// LoadSkew returns, per disk, the number of blocks whose original location
// is that disk — a direct view of the Zipf skew used in Figures 9 and 10.
func (p *Placement) LoadSkew() []int {
	counts := make([]int, p.numDisks)
	for _, ls := range p.locs {
		counts[ls[0]]++
	}
	return counts
}

// Zipf samples ranks 0..n-1 with P(r) proportional to 1/(r+1)^z. Unlike
// math/rand's Zipf it supports any exponent z >= 0 (the paper sweeps
// z in [0,1], Appendix A.1) via an inverse-CDF table.
type Zipf struct {
	cdf []float64
}

// NewZipf builds a sampler over n ranks with exponent z.
func NewZipf(n int, z float64) *Zipf {
	if n <= 0 {
		panic(fmt.Sprintf("placement: Zipf over %d ranks", n))
	}
	if z < 0 || math.IsNaN(z) {
		panic(fmt.Sprintf("placement: Zipf exponent %v", z))
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
	return &Zipf{cdf: cdf}
}

// Sample draws a rank using the provided source.
func (zp *Zipf) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	lo, hi := 0, len(zp.cdf)-1
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
