package serve

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/placement"
)

// Router is the daemon's replica-lookup surface: a sharded, lock-free view
// of a placement (internal/placement) that HTTP handlers and the decision
// loop read concurrently with zero synchronization on the hot path.
//
// Blocks are striped across shards by block ID; each shard holds an
// immutable location table behind an atomic pointer. Reads are two index
// operations and one atomic load. Updates (replica creation or migration
// feeding a future replication manager) copy-on-write a single shard's
// table, so writers on different shards never contend and readers are
// never blocked.
type Router struct {
	numDisks int
	shards   []atomic.Pointer[shardTable]
}

// shardTable is one shard's immutable location store, indexed by
// block/numShards. Replica lists are packed into fixed-width rows of one
// flat array instead of a slice of slices: a lookup loads the row
// directly rather than chasing a per-block slice header first, halving
// the dependent cache misses on the decision hot path. The table must
// never be mutated in place.
type shardTable struct {
	width int           // replica slots per row (the widest list stored)
	cnt   []uint16      // live replica count per block
	flat  []core.DiskID // rows, width apart; block i's row starts at i*width
}

// lookup returns block row i's live replicas, or nil when out of range.
func (t *shardTable) lookup(i int) []core.DiskID {
	if i >= len(t.cnt) {
		return nil
	}
	off := i * t.width
	end := off + int(t.cnt[i])
	return t.flat[off:end:end]
}

// packTable builds an immutable shardTable from per-block location lists.
func packTable(lists [][]core.DiskID) *shardTable {
	w := 1
	for _, l := range lists {
		if len(l) > w {
			w = len(l)
		}
	}
	t := &shardTable{
		width: w,
		cnt:   make([]uint16, len(lists)),
		flat:  make([]core.DiskID, len(lists)*w),
	}
	for i, l := range lists {
		t.cnt[i] = uint16(len(l))
		copy(t.flat[i*w:], l)
	}
	return t
}

// NewRouter builds a sharded router over a placement. shards <= 0 selects
// one shard per available stripe up to 64 — enough that copy-on-write
// updates to distinct stripes never touch the same table.
func NewRouter(p *placement.Placement, shards int) *Router {
	if shards <= 0 {
		shards = 64
	}
	if n := p.NumBlocks(); shards > n && n > 0 {
		shards = n
	}
	if shards < 1 {
		shards = 1
	}
	r := &Router{numDisks: p.NumDisks(), shards: make([]atomic.Pointer[shardTable], shards)}
	lists := make([][][]core.DiskID, shards)
	for s := range lists {
		n := (p.NumBlocks() - s + shards - 1) / shards
		if n < 0 {
			n = 0
		}
		lists[s] = make([][]core.DiskID, 0, n)
	}
	for b := 0; b < p.NumBlocks(); b++ {
		s := b % shards
		lists[s] = append(lists[s], p.Locations(core.BlockID(b)))
	}
	for s := range lists {
		r.shards[s].Store(packTable(lists[s]))
	}
	return r
}

// NumDisks returns the disk population size the router validates against.
func (r *Router) NumDisks() int { return r.numDisks }

// NumShards returns the stripe count.
func (r *Router) NumShards() int { return len(r.shards) }

// NumBlocks returns the number of blocks with a location list.
func (r *Router) NumBlocks() int {
	n := 0
	for s := range r.shards {
		n += len(r.shards[s].Load().cnt)
	}
	return n
}

// Lookup returns the replica locations of a block, original first, or nil
// for an unknown block. The caller must not modify the returned slice.
// Lookup is lock-free and safe for any number of concurrent callers.
func (r *Router) Lookup(b core.BlockID) []core.DiskID {
	if b < 0 {
		return nil
	}
	s := int(b) % len(r.shards)
	t := r.shards[s].Load()
	return t.lookup(int(b) / len(r.shards))
}

// Update replaces one block's location list (copy-on-write on the block's
// shard). Readers observe either the old or the new list, never a partial
// write. The block must already exist and the new list must name at least
// one valid, distinct disk — the serving layer only re-routes replicas, it
// does not grow the block space.
func (r *Router) Update(b core.BlockID, locs []core.DiskID) error {
	if len(locs) == 0 {
		return fmt.Errorf("serve: block %d must keep at least one location", b)
	}
	seen := make(map[core.DiskID]struct{}, len(locs))
	for _, d := range locs {
		if d < 0 || int(d) >= r.numDisks {
			return fmt.Errorf("serve: block %d on invalid disk %d", b, d)
		}
		if _, dup := seen[d]; dup {
			return fmt.Errorf("serve: block %d lists disk %d twice", b, d)
		}
		seen[d] = struct{}{}
	}
	if b < 0 {
		return fmt.Errorf("serve: invalid block %d", b)
	}
	s := int(b) % len(r.shards)
	i := int(b) / len(r.shards)
	for {
		old := r.shards[s].Load()
		if i >= len(old.cnt) {
			return fmt.Errorf("serve: unknown block %d", b)
		}
		var next *shardTable
		if len(locs) <= old.width {
			// Same row width: copy the packed table and overwrite one row.
			next = &shardTable{
				width: old.width,
				cnt:   append([]uint16(nil), old.cnt...),
				flat:  append([]core.DiskID(nil), old.flat...),
			}
			row := next.flat[i*next.width : i*next.width+next.width]
			n := copy(row, locs)
			for j := n; j < len(row); j++ {
				row[j] = 0
			}
			next.cnt[i] = uint16(len(locs))
		} else {
			// The new list is wider than any row; repack the shard with
			// wider rows. Updates are rare and per-shard, so the rebuild
			// never touches another stripe or blocks a reader.
			lists := make([][]core.DiskID, len(old.cnt))
			for j := range lists {
				if j == i {
					lists[j] = locs
				} else {
					lists[j] = old.lookup(j)
				}
			}
			next = packTable(lists)
		}
		if r.shards[s].CompareAndSwap(old, next) {
			return nil
		}
	}
}
