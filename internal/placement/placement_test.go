package placement

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// layoutHash hashes a placement's rows: each row's length, then its disks.
func layoutHash(p *Placement) string {
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
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateLayoutPinned pins the evaluation layouts the figures and the
// benchmark run on: seeded 180-disk, 30,000-block layouts hash to the
// values the per-block slice version produced, so the RNG draws and the
// Zipf ranks are unchanged. The grid is the figures' seed (Scale.Seed+7)
// over every Zipf step of the z sweep and rf 1-5. It also bounds
// Generate's allocations, which must not grow with the block count.
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
	const want = "f717b9a5f4498ccf7ba92612f01ab530afb53eabd6b0376eac6e4f984238c5a0"
	if got := layoutHash(p); got != want {
		t.Errorf("layout hash = %s, want %s", got, want)
	}
	for _, tc := range []struct {
		z    float64
		rf   int
		want string
	}{
		{0, 1, "f00c57950810551789546d7a9a35b5c61193b967311571c1f4d9dcdca9cebb8b"},
		{0, 2, "dcc14a6ee47d74e3369f6c46c800c35089e98c5952d50b345ea2b50f858da9a3"},
		{0, 3, "2345507666d70aa04242a7c20449e889d8ecf78580f8f651b4019d6796c09b15"},
		{0, 4, "644b34252a860f64eeed248b8ae91f34e49edeb8030bd26cb6dfd41735c52c59"},
		{0, 5, "7298be2b62ff960340fe83337d3e7e8b9533e072912d95f5da7c53b2ef71956a"},
		{0.25, 1, "452caa5b2437729a4c4c1c71259ff5b48472df5f9f84b93e8c3abb2051aa24a8"},
		{0.25, 2, "458358d4af3656aeefeb30bf09570a7a4f98676f295754503268e401a468af95"},
		{0.25, 3, "11bee0e7a3361b612b4bb2071e8b20ff2f51a8681fa29f8f6ace6d7673674500"},
		{0.25, 4, "022a8a460348268025d05b7c61b9c2dfcb64c6036d8ed20b7f6e9a26d5fb83b5"},
		{0.25, 5, "57a749836d9da902f829c7d52b5e9965a6f4eccdbf34ab26ed556517541fa357"},
		{0.5, 1, "dc2baa0ef61497b4e785067c45fb65facd15f3080c3f80de0a2ced505a411aab"},
		{0.5, 2, "7603934a39ed3dd2c5bfcf7ba7b46ab711f44a62bb8f02debd32f456ee53f83b"},
		{0.5, 3, "fb2f27029c0467e444b2a53afb3a574e7f0118609f2da517853a9d93b3a8a204"},
		{0.5, 4, "4517515a0ac264a69a62336ed5b1a72e166d78a3185c2bbd71aec431fd2fb06b"},
		{0.5, 5, "7ff366bb62f9b76bec396e4f481bb627301c065c92dee1687cae9bb6d34ce0f4"},
		{0.75, 1, "a9a7b5e648a0c24627eaaec5b692004e9d2012304b5a66b99dcee8110d5a630b"},
		{0.75, 2, "ba1a016304eba022a935a539aadb4989ae12f62dde18ec492ba1efb580b67b42"},
		{0.75, 3, "dad7a3fe2836fd65f3724e8b76ccf6ff6085621bffc03718c0cf26cff88940d4"},
		{0.75, 4, "1fbc680d695a4cbb15f101ca478867d9ed2c7b12cae4098a166d83b087bbb3ff"},
		{0.75, 5, "d295ee15ebeda27e76c13a70bc25935383acad47656ca69739702ca769168025"},
		{1, 1, "5d02bb4c7e427faab7523a99a9900e912f391ce281fe992d37fcc5dd6d00faa6"},
		{1, 2, "c5a9ceab7021f23d5c21738a84d34a9622bc231e3ec1cf2e3eef23c0c01b27b8"},
		{1, 3, "7cc860e5d81a361c02268d9141474cb118a357e4ad71e8ce7da6e079fdb7d7cb"},
		{1, 4, "a0116966414393766569bf7cc80454c260b88cf1e7a6501322166026f1eba32c"},
		{1, 5, "5b0b790574271105c356166217dcd5cd3aa0a4ac30996e78c92f57882a336c90"},
	} {
		p, err := Generate(GenerateConfig{NumDisks: 180, NumBlocks: 30000, ReplicationFactor: tc.rf, ZipfExponent: tc.z, Seed: 8})
		if err != nil {
			t.Fatal(err)
		}
		if got := layoutHash(p); got != tc.want {
			t.Errorf("z=%v rf=%d: layout hash = %s, want %s", tc.z, tc.rf, got, tc.want)
		}
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

// TestLocationsAppendKeepsNextBlock: a Locations result is capped at its
// own row, so a caller's append copies instead of overwriting the next
// block's replicas in the shared table.
func TestLocationsAppendKeepsNextBlock(t *testing.T) {
	t.Parallel()
	gen, err := Generate(GenerateConfig{NumDisks: 8, NumBlocks: 4, ReplicationFactor: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	built, err := New(8, [][]core.DiskID{{1, 2}, {3}, {4, 5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Placement{gen, built} {
		for b := 0; b+1 < p.NumBlocks(); b++ {
			next := slices.Clone(p.Locations(core.BlockID(b + 1)))
			ls := p.Locations(core.BlockID(b))
			if cap(ls) != len(ls) {
				t.Fatalf("block %d: cap %d > len %d", b, cap(ls), len(ls))
			}
			_ = append(ls, 7)
			if got := p.Locations(core.BlockID(b + 1)); !slices.Equal(got, next) {
				t.Fatalf("append to block %d changed block %d: %v, was %v", b, b+1, got, next)
			}
		}
	}
}

// BenchmarkGenerate times the evaluation layout at serve-json's size
// (rf 3) and paper-10k's widest (rf 5): 180 disks, 30,000 blocks, z = 1.
func BenchmarkGenerate(b *testing.B) {
	for _, rf := range []int{3, 5} {
		cfg := GenerateConfig{NumDisks: 180, NumBlocks: 30000, ReplicationFactor: rf, ZipfExponent: 1, Seed: 1}
		b.Run(fmt.Sprintf("rf%d", rf), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Generate(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
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

// searchAll is the reference inverse-CDF lookup: the first rank r with
// cdf[r] >= u, by binary search over the whole table.
func searchAll(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// zipfProbes returns the draws where a guide window could go wrong: every
// bucket boundary k/n and every CDF value, each with its neighbouring
// floats, kept inside [0, 1).
func zipfProbes(zp *Zipf) []float64 {
	n := len(zp.cdf)
	var us []float64
	add := func(x float64) {
		for _, u := range []float64{math.Nextafter(x, -1), x, math.Nextafter(x, 2)} {
			if u >= 0 && u < 1 {
				us = append(us, u)
			}
		}
	}
	for k := 0; k <= n; k++ {
		add(float64(k) / float64(n))
	}
	for _, c := range zp.cdf {
		add(c)
	}
	return us
}

// TestZipfSampleMatchesSearch: the guided Sample returns the rank a search
// over the whole CDF returns, for random draws and at every bucket edge,
// and it consumes exactly one Float64 per draw, so every layout and
// request stream drawn from it is unchanged.
func TestZipfSampleMatchesSearch(t *testing.T) {
	t.Parallel()
	for _, n := range []int{1, 2, 7, 180, 1000} {
		for _, z := range []float64{0, 0.25, 1, 2} {
			zp := NewZipf(n, z)
			rng := rand.New(rand.NewSource(int64(n) + int64(z*100)))
			us := zipfProbes(zp)
			for i := 0; i < 20000; i++ {
				us = append(us, rng.Float64())
			}
			for _, u := range us {
				if got, want := zp.rank(u), searchAll(zp.cdf, u); got != want {
					t.Fatalf("n=%d z=%v u=%v: rank %d, search %d", n, z, u, got, want)
				}
			}
			a, b := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
			for i := 0; i < 100; i++ {
				if got, want := zp.Sample(a), searchAll(zp.cdf, b.Float64()); got != want {
					t.Fatalf("n=%d z=%v draw %d: Sample %d, search %d", n, z, i, got, want)
				}
			}
			if a.Int63() != b.Int63() {
				t.Fatalf("n=%d z=%v: Sample does not consume exactly one Float64", n, z)
			}
		}
	}
}

// FuzzZipfSample checks the guided search against the full search for
// arbitrary rank counts, exponents and draws.
func FuzzZipfSample(f *testing.F) {
	f.Add(uint16(180), 1.0, 0.5)
	f.Add(uint16(7), 0.25, 3.0/7)
	f.Add(uint16(1000), 2.0, 0.999999)
	f.Add(uint16(1), 0.0, 0.0)
	f.Fuzz(func(t *testing.T, n uint16, z, u float64) {
		ranks := int(n)%2000 + 1
		if !(z >= 0 && z <= 64) || !(u >= 0 && u < 1) {
			t.Skip()
		}
		zp := NewZipf(ranks, z)
		if got, want := zp.rank(u), searchAll(zp.cdf, u); got != want {
			t.Fatalf("n=%d z=%v u=%v: rank %d, search %d", ranks, z, u, got, want)
		}
		for _, p := range zipfProbes(zp) {
			if got, want := zp.rank(p), searchAll(zp.cdf, p); got != want {
				t.Fatalf("n=%d z=%v u=%v: rank %d, search %d", ranks, z, p, got, want)
			}
		}
	})
}
