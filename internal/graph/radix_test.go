package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// TestRadixSortUint64MatchesSort checks the radix sort against slices.Sort
// on both sides of radixMin, with keys whose low, middle or high bytes are
// shared by every key (skipped passes) and with full-width keys.
func TestRadixSortUint64MatchesSort(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(1))
	masks := []uint64{0xff, 0xffff_0000, 0xff00_0000_00ff_ff00, ^uint64(0)}
	for _, n := range []int{1, radixMin - 1, radixMin, 5000} {
		for _, mask := range masks {
			a := make([]uint64, n)
			for i := range a {
				a[i] = rng.Uint64()&mask | 0x0100_0000_0000_0000
			}
			want := slices.Clone(a)
			slices.Sort(want)
			RadixSortUint64(a)
			if !slices.Equal(a, want) {
				t.Fatalf("n=%d mask=%#x: radix order differs from slices.Sort", n, mask)
			}
		}
	}
}
