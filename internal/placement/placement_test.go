package placement

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func TestNewValidation(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name     string
		numDisks int
		locs     [][]core.DiskID
		ok       bool
	}{
		{"valid", 3, [][]core.DiskID{{0, 1}, {2}}, true},
		{"no disks", 0, nil, false},
		{"empty locations", 2, [][]core.DiskID{{}}, false},
		{"disk out of range", 2, [][]core.DiskID{{5}}, false},
		{"negative disk", 2, [][]core.DiskID{{-1}}, false},
		{"duplicate replica", 3, [][]core.DiskID{{1, 1}}, false},
		{"non-adjacent duplicate", 4, [][]core.DiskID{{0}, {3, 1, 3}}, false},
	}
	for _, tc := range tests {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			_, err := New(tc.numDisks, tc.locs)
			if (err == nil) != tc.ok {
				t.Errorf("New err = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

func TestLocationsAndOriginal(t *testing.T) {
	t.Parallel()
	p, err := New(4, [][]core.DiskID{{2, 0}, {3}})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Locations(0); len(got) != 2 || got[0] != 2 || got[1] != 0 {
		t.Errorf("Locations(0) = %v", got)
	}
	if got := p.Original(0); got != 2 {
		t.Errorf("Original(0) = %v, want 2", got)
	}
	if got := p.Locations(99); got != nil {
		t.Errorf("Locations(unknown) = %v, want nil", got)
	}
	if got := p.Original(99); got != core.InvalidDisk {
		t.Errorf("Original(unknown) = %v, want InvalidDisk", got)
	}
	if p.NumDisks() != 4 || p.NumBlocks() != 2 {
		t.Errorf("sizes = %d disks, %d blocks", p.NumDisks(), p.NumBlocks())
	}
}

func TestGenerateValidation(t *testing.T) {
	t.Parallel()
	base := GenerateConfig{NumDisks: 10, NumBlocks: 5, ReplicationFactor: 2, ZipfExponent: 1}
	mutations := []struct {
		name   string
		mutate func(*GenerateConfig)
	}{
		{"no disks", func(c *GenerateConfig) { c.NumDisks = 0 }},
		{"negative blocks", func(c *GenerateConfig) { c.NumBlocks = -1 }},
		{"zero replication", func(c *GenerateConfig) { c.ReplicationFactor = 0 }},
		{"replication over disks", func(c *GenerateConfig) { c.ReplicationFactor = 11 }},
		{"negative zipf", func(c *GenerateConfig) { c.ZipfExponent = -0.5 }},
	}
	for _, tc := range mutations {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := base
			tc.mutate(&cfg)
			if _, err := Generate(cfg); err == nil {
				t.Errorf("Generate accepted %+v", cfg)
			}
		})
	}
}

func TestGenerateStructure(t *testing.T) {
	t.Parallel()
	cfg := GenerateConfig{NumDisks: 20, NumBlocks: 500, ReplicationFactor: 3, ZipfExponent: 1, Seed: 42}
	p, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumBlocks() != 500 {
		t.Fatalf("blocks = %d", p.NumBlocks())
	}
	for b := 0; b < p.NumBlocks(); b++ {
		ls := p.Locations(core.BlockID(b))
		if len(ls) != 3 {
			t.Fatalf("block %d has %d locations, want 3", b, len(ls))
		}
		seen := map[core.DiskID]struct{}{}
		for _, d := range ls {
			if d < 0 || int(d) >= 20 {
				t.Fatalf("block %d on invalid disk %d", b, d)
			}
			if _, dup := seen[d]; dup {
				t.Fatalf("block %d has duplicate replica on disk %d", b, d)
			}
			seen[d] = struct{}{}
		}
	}
}

func TestGenerateDeterministicForSeed(t *testing.T) {
	t.Parallel()
	cfg := GenerateConfig{NumDisks: 10, NumBlocks: 100, ReplicationFactor: 2, ZipfExponent: 1, Seed: 7}
	p1, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 100; b++ {
		l1, l2 := p1.Locations(core.BlockID(b)), p2.Locations(core.BlockID(b))
		for i := range l1 {
			if l1[i] != l2[i] {
				t.Fatalf("block %d differs between same-seed generations", b)
			}
		}
	}
}

// raceEnabled is set by race_test.go: the race detector instruments
// allocations, so allocation counts do not hold under it.
var raceEnabled bool

// TestGenerateLayoutPinned pins the evaluation layout the figures and the
// benchmark run on: a seeded 180-disk, 30,000-block, rf 3 layout hashes to
// the value the per-block map version produced, so the RNG draws are
// unchanged. It also bounds Generate's allocations, which must not grow
// with the block count.
//
// Not parallel: testing.AllocsPerRun counts the whole process's mallocs,
// so the bound must not overlap the package's parallel tests, and it
// averages 20 runs so a stray runtime allocation does not tip it.
func TestGenerateLayoutPinned(t *testing.T) {
	cfg := GenerateConfig{NumDisks: 180, NumBlocks: 30000, ReplicationFactor: 3, ZipfExponent: 1, Seed: 1}
	p, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [4]byte
	for b := 0; b < p.NumBlocks(); b++ {
		ls := p.Locations(core.BlockID(b))
		binary.LittleEndian.PutUint32(buf[:], uint32(len(ls)))
		h.Write(buf[:])
		for _, d := range ls {
			binary.LittleEndian.PutUint32(buf[:], uint32(d))
			h.Write(buf[:])
		}
	}
	const want = "f717b9a5f4498ccf7ba92612f01ab530afb53eabd6b0376eac6e4f984238c5a0"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("layout hash = %s, want %s", got, want)
	}
	if raceEnabled {
		return // allocation counts are not exact under the race detector
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Generate(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("Generate allocates %v times, want at most 8", allocs)
	}
}

func TestGenerateZipfSkewsOriginals(t *testing.T) {
	t.Parallel()
	// With z=1 the hottest disk should hold far more originals than the
	// median disk; with z=0 the distribution should be roughly flat.
	skewed, err := Generate(GenerateConfig{NumDisks: 30, NumBlocks: 10000, ReplicationFactor: 1, ZipfExponent: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Generate(GenerateConfig{NumDisks: 30, NumBlocks: 10000, ReplicationFactor: 1, ZipfExponent: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sk := append([]int(nil), skewed.LoadSkew()...)
	fl := append([]int(nil), flat.LoadSkew()...)
	sort.Sort(sort.Reverse(sort.IntSlice(sk)))
	sort.Sort(sort.Reverse(sort.IntSlice(fl)))
	if sk[0] < 3*sk[15] {
		t.Errorf("z=1 skew too weak: max=%d median=%d", sk[0], sk[15])
	}
	if fl[0] > 2*fl[29] {
		t.Errorf("z=0 not flat: max=%d min=%d", fl[0], fl[29])
	}
}

func TestZipfDistributionMatchesTheory(t *testing.T) {
	t.Parallel()
	const n = 5
	z := NewZipf(n, 1)
	rng := rand.New(rand.NewSource(3))
	counts := make([]int, n)
	const samples = 200000
	for i := 0; i < samples; i++ {
		counts[z.Sample(rng)]++
	}
	h := 0.0
	for r := 1; r <= n; r++ {
		h += 1 / float64(r)
	}
	for r := 0; r < n; r++ {
		want := 1 / float64(r+1) / h
		got := float64(counts[r]) / samples
		if math.Abs(got-want) > 0.01 {
			t.Errorf("rank %d frequency = %.4f, want %.4f", r, got, want)
		}
		if p := z.P(r); math.Abs(p-want) > 1e-12 {
			t.Errorf("P(%d) = %v, want %v", r, p, want)
		}
	}
}

func TestZipfZeroExponentIsUniform(t *testing.T) {
	t.Parallel()
	z := NewZipf(4, 0)
	for r := 0; r < 4; r++ {
		if math.Abs(z.P(r)-0.25) > 1e-12 {
			t.Errorf("P(%d) = %v, want 0.25", r, z.P(r))
		}
	}
	if z.P(-1) != 0 || z.P(4) != 0 {
		t.Error("out-of-range P != 0")
	}
}

func TestZipfPanics(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		n int
		z float64
	}{{0, 1}, {5, -1}, {5, math.NaN()}} {
		tc := tc
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf(%d,%v) did not panic", tc.n, tc.z)
				}
			}()
			NewZipf(tc.n, tc.z)
		}()
	}
}

// Property: samples are always in range and the CDF is monotone.
func TestZipfSampleInRange(t *testing.T) {
	t.Parallel()
	f := func(seed int64, n uint8, zTenths uint8) bool {
		ranks := int(n)%100 + 1
		z := NewZipf(ranks, float64(zTenths%20)/10)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			r := z.Sample(rng)
			if r < 0 || r >= ranks {
				return false
			}
		}
		sum := 0.0
		for r := 0; r < ranks; r++ {
			sum += z.P(r)
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
