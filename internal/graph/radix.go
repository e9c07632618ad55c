package graph

import (
	"cmp"
	"math"
	"slices"
)

// radixMin is the input size below which the sorts here hand over to a
// comparison sort: under it the counting tables cost more than they save.
const radixMin = 256

// byteOffsets prepares the stable LSD passes over keys, one per key byte:
// a single scan counts every byte of every key, and each byte position's
// counts become the start offsets of its scatter. A position whose byte all
// keys share would be an identity pass; it is reported as skipped.
func byteOffsets(keys []uint64, offs *[8][256]int32) (pass [8]bool) {
	for _, k := range keys {
		for b := range offs {
			offs[b][byte(k>>(8*b))]++
		}
	}
	for b := range offs {
		c := &offs[b]
		if c[byte(keys[0]>>(8*b))] == int32(len(keys)) {
			continue
		}
		pass[b] = true
		var sum int32
		for d, x := range c {
			c[d] = sum
			sum += x
		}
	}
	return pass
}

// RadixSortUint64 sorts a ascending with an LSD byte-wise radix sort,
// falling back to comparison sorting for small inputs. The packed-key
// buffers of the MWIS pipeline (edge lists, (request, vertex) mention
// runs) are uniform uint64 keys, where counting passes beat pdqsort by a
// wide margin; bytes every key shares, such as the unused high ones, cost
// no pass.
func RadixSortUint64(a []uint64) {
	if len(a) < radixMin {
		slices.Sort(a)
		return
	}
	var offs [8][256]int32
	pass := byteOffsets(a, &offs)
	src, dst := a, make([]uint64, len(a))
	for b := range offs {
		if !pass[b] {
			continue
		}
		c := &offs[b]
		for _, x := range src {
			d := byte(x >> (8 * b))
			dst[c[d]] = x
			c[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}

// descKey maps a ratio to a uint64 whose ascending order is the ratio's
// descending order, with -0 and +0 one key as they are one value: the
// IEEE-754 bits with the sign bit set order non-negative floats, inverted
// bits order negative ones, and the result is inverted once more.
func descKey(r float64) uint64 {
	if r == 0 {
		r = 0
	}
	b := math.Float64bits(r)
	if b>>63 != 0 {
		return b
	}
	return ^b &^ (1 << 63)
}

// sortByKey returns the vertices ordered by (keys[v] asc, v asc). It is a
// stable LSD radix sort of the vertex ids, one key byte per pass, which
// keeps equal keys in ascending v; small inputs use a comparison sort
// instead. Sorting 4-byte ids rather than (key, v) entries keeps its
// scratch buffer to 4 bytes per vertex.
func sortByKey(keys []uint64) []int32 {
	n := len(keys)
	perm := make([]int32, n)
	for v := range perm {
		perm[v] = int32(v)
	}
	if n < radixMin {
		slices.SortFunc(perm, func(a, b int32) int {
			return cmp.Or(cmp.Compare(keys[a], keys[b]), cmp.Compare(a, b))
		})
		return perm
	}
	var offs [8][256]int32
	pass := byteOffsets(keys, &offs)
	src, dst := perm, make([]int32, n)
	for b := range offs {
		if !pass[b] {
			continue
		}
		c := &offs[b]
		for _, v := range src {
			d := byte(keys[v] >> (8 * b))
			dst[c[d]] = v
			c[d]++
		}
		src, dst = dst, src
	}
	return src
}
