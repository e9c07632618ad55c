package serve

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/placement"
)

func testPlacement(t *testing.T, disks, blocks, rf int) *placement.Placement {
	t.Helper()
	p, err := placement.Generate(placement.GenerateConfig{
		NumDisks: disks, NumBlocks: blocks,
		ReplicationFactor: rf, ZipfExponent: 1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRouterLookupMatchesPlacement(t *testing.T) {
	t.Parallel()
	p := testPlacement(t, 16, 333, 3)
	r := NewRouter(p, 0)
	if r.NumBlocks() != 333 || r.NumDisks() != 16 {
		t.Fatalf("NumBlocks, NumDisks = %d, %d, want 333, 16", r.NumBlocks(), r.NumDisks())
	}
	for b := 0; b < 333; b++ {
		got := r.Lookup(core.BlockID(b))
		want := p.Locations(core.BlockID(b))
		if !slices.Equal(got, want) {
			t.Fatalf("block %d: %v != %v", b, got, want)
		}
	}
}

func TestRouterUnknownBlocks(t *testing.T) {
	t.Parallel()
	r := NewRouter(testPlacement(t, 4, 10, 2), 3)
	for _, b := range []core.BlockID{-1, 10, 11, 1 << 30, 1 << 40} {
		if locs := r.Lookup(b); locs != nil {
			t.Errorf("Lookup(%d) = %v, want nil", b, locs)
		}
	}
}

// TestRouterConcurrent runs lookups from several goroutines at once; under
// -race this proves reading the shared placement table needs no
// synchronization, and every goroutine must see the placement's lists.
func TestRouterConcurrent(t *testing.T) {
	t.Parallel()
	const blocks = 64
	p := testPlacement(t, 8, blocks, 2)
	r := NewRouter(p, 0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				b := core.BlockID((g*13 + i) % blocks)
				if got, want := r.Lookup(b), p.Locations(b); !slices.Equal(got, want) {
					t.Errorf("block %d: %v != %v", b, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkNewRouter times the router's set-up over serve-json's
// placement (180 disks, 30,000 blocks, rf 3): one allocation, no copy.
func BenchmarkNewRouter(b *testing.B) {
	p, err := placement.Generate(placement.GenerateConfig{
		NumDisks: 180, NumBlocks: 30000, ReplicationFactor: 3, ZipfExponent: 1, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkRouter = NewRouter(p, 0)
	}
}

var sinkRouter *Router
