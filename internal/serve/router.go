package serve

import (
	"repro/internal/core"
	"repro/internal/placement"
)

// Router is the daemon's replica-lookup surface. It reads the placement's
// replica table (internal/placement) in place: the table is immutable, so
// HTTP handlers and the decision loop read it concurrently with no
// synchronization and no copy of their own.
type Router struct {
	p *placement.Placement
}

// NewRouter builds a router over a placement. The shards argument is
// ignored: the placement's one table serves every reader.
func NewRouter(p *placement.Placement, shards int) *Router {
	return &Router{p: p}
}

// NumDisks returns the disk population size the router validates against.
func (r *Router) NumDisks() int { return r.p.NumDisks() }

// NumBlocks returns the number of blocks with a location list.
func (r *Router) NumBlocks() int { return r.p.NumBlocks() }

// Lookup returns the replica locations of a block, original first, or nil
// for an unknown block. The caller must not modify the returned slice.
// Lookup is safe for any number of concurrent callers.
func (r *Router) Lookup(b core.BlockID) []core.DiskID { return r.p.Locations(b) }
