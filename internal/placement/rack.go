package placement

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
)

// RackConfig parameterizes an HDFS-style rack-aware layout — the paper's
// conclusion names HDFS as the target deployment, and HDFS's default block
// placement is: first replica on the writer's node, second on a different
// node in the same rack, third on a node in a different rack.
type RackConfig struct {
	NumDisks          int
	NumRacks          int
	NumBlocks         int
	ReplicationFactor int
	ZipfExponent      float64 // skew of the first replica's disk
	Seed              int64
}

// RackOf returns the rack housing a disk under the contiguous striping
// used by GenerateRackAware: disks [0, K/R) are rack 0, and so on (the
// final rack absorbs any remainder).
func RackOf(d core.DiskID, numDisks, numRacks int) int {
	per := numDisks / numRacks
	r := int(d) / per
	if r >= numRacks {
		r = numRacks - 1
	}
	return r
}

// GenerateRackAware builds an HDFS-style placement: the original location
// is Zipf(z)-skewed over all disks, the second replica sits on a distinct
// disk in the same rack, and further replicas on distinct disks in other
// racks (wrapping to anywhere once racks are exhausted).
func GenerateRackAware(cfg RackConfig) (*Placement, error) {
	switch {
	case cfg.NumDisks <= 0:
		return nil, fmt.Errorf("placement: NumDisks = %d", cfg.NumDisks)
	case cfg.NumRacks <= 0 || cfg.NumRacks > cfg.NumDisks:
		return nil, fmt.Errorf("placement: NumRacks = %d for %d disks", cfg.NumRacks, cfg.NumDisks)
	case cfg.NumBlocks < 0:
		return nil, fmt.Errorf("placement: NumBlocks = %d", cfg.NumBlocks)
	case cfg.ReplicationFactor < 1 || cfg.ReplicationFactor > cfg.NumDisks:
		return nil, fmt.Errorf("placement: ReplicationFactor = %d for %d disks", cfg.ReplicationFactor, cfg.NumDisks)
	case cfg.ZipfExponent < 0:
		return nil, fmt.Errorf("placement: ZipfExponent = %v", cfg.ZipfExponent)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	rankToDisk := rng.Perm(cfg.NumDisks)
	zipf := NewZipf(cfg.NumDisks, cfg.ZipfExponent)

	// Disks per rack under contiguous striping.
	byRack := make([][]core.DiskID, cfg.NumRacks)
	for d := 0; d < cfg.NumDisks; d++ {
		r := RackOf(core.DiskID(d), cfg.NumDisks, cfg.NumRacks)
		byRack[r] = append(byRack[r], core.DiskID(d))
	}

	locs := make([][]core.DiskID, cfg.NumBlocks)
	for b := range locs {
		used := make(map[core.DiskID]struct{}, cfg.ReplicationFactor)
		usedRacks := make(map[int]struct{}, cfg.ReplicationFactor)
		ds := make([]core.DiskID, 0, cfg.ReplicationFactor)
		add := func(d core.DiskID) {
			ds = append(ds, d)
			used[d] = struct{}{}
			usedRacks[RackOf(d, cfg.NumDisks, cfg.NumRacks)] = struct{}{}
		}

		orig := core.DiskID(rankToDisk[zipf.Sample(rng)])
		add(orig)

		// Second replica: same rack, different disk (when the rack has one).
		if cfg.ReplicationFactor >= 2 {
			rack := byRack[RackOf(orig, cfg.NumDisks, cfg.NumRacks)]
			if d, ok := pickDistinct(rng, rack, used); ok {
				add(d)
			}
		}
		// Remaining replicas: prefer unused racks, then anywhere.
		for len(ds) < cfg.ReplicationFactor {
			var pool []core.DiskID
			for r, disks := range byRack {
				if _, taken := usedRacks[r]; !taken {
					pool = append(pool, disks...)
				}
			}
			d, ok := pickDistinct(rng, pool, used)
			if !ok {
				// All racks used: fall back to any distinct disk.
				all := make([]core.DiskID, 0, cfg.NumDisks)
				for i := 0; i < cfg.NumDisks; i++ {
					all = append(all, core.DiskID(i))
				}
				if d, ok = pickDistinct(rng, all, used); !ok {
					return nil, fmt.Errorf("placement: cannot place %d replicas on %d disks", cfg.ReplicationFactor, cfg.NumDisks)
				}
			}
			add(d)
		}
		locs[b] = ds
	}
	return New(cfg.NumDisks, locs)
}

// pickDistinct draws a uniform disk from pool that is not yet used.
func pickDistinct(rng *rand.Rand, pool []core.DiskID, used map[core.DiskID]struct{}) (core.DiskID, bool) {
	candidates := make([]core.DiskID, 0, len(pool))
	for _, d := range pool {
		if _, taken := used[d]; !taken {
			candidates = append(candidates, d)
		}
	}
	if len(candidates) == 0 {
		return core.InvalidDisk, false
	}
	return candidates[rng.Intn(len(candidates))], true
}
