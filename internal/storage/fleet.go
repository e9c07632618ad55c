package storage

import (
	"fmt"
	"math/bits"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/diskmodel"
	"repro/internal/power"
	"repro/internal/simkernel"
)

// FleetConfig describes the rack-partitioned closed-loop fleet workload:
// the scale regime (Section 5's cluster sizes pushed to datacenter fleet
// sizes) where per-event observability is off and the kernel free-runs.
//
// Each rack owns a contiguous stripe of disks and a self-scheduling request
// generator that emits bursts separated by idle gaps long enough for the
// power policy to spin disks down, so every burst exercises the full
// standby → spin-up → active → idle → spin-down cycle. Requests are placed
// rack-locally: the generator picks ReplicationFactor candidate replicas by
// hash and submits to the best one under the paper's heuristic preference
// order (spinning before standby, least-loaded among equals). Racks never
// touch each other's disks, so the whole run executes in free-running mode
// (simkernel.Sharded.RunFree) and every aggregate below is shard-count
// invariant by construction: latencies are accumulated as integer sums and
// log-scale histogram counts per shard, energy and spin counts are folded
// per disk in disk order.
type FleetConfig struct {
	NumDisks int
	NumRacks int // must divide NumDisks
	// Shards is the number of kernel engines the racks are split over; 0
	// or 1 runs every rack on one engine. Must divide NumRacks so a rack
	// never straddles a shard boundary. Results are identical at any
	// value.
	Shards int
	// Workers caps the goroutines draining the shards; 0 means
	// GOMAXPROCS.
	Workers int
	// Telemetry arms the kernel's wall-clock attribution
	// (simkernel.Sharded.EnableTelemetry) and attaches a KernelStats snapshot to the
	// result. Costs two clock reads per event, so leave it off when
	// measuring peak throughput; the structural counters in the snapshot are
	// collected either way.
	Telemetry bool
	// RelaxGC turns the garbage collector off for the duration of the run
	// (previous settings are restored before RunFleet returns), trading
	// peak memory for event throughput. The event graph is allocated up
	// front and almost nothing on the hot path escapes, so collections buy
	// little back; a 100k-disk run peaks around 6 GB, and an 8 GB soft
	// memory limit keeps the collector as a backstop. Results are
	// identical either way — only Wall and EventsPerSec move.
	RelaxGC bool

	RequestsPerDisk   int           // total requests = NumDisks * RequestsPerDisk
	ReplicationFactor int           // candidate replicas per request, rack-local
	BurstLen          int           // requests per rack burst
	InterArrival      time.Duration // mean intra-burst request gap
	IdleGap           time.Duration // gap between a rack's bursts
	Seed              uint64

	Power  power.Config
	Mech   diskmodel.MechConfig
	Policy power.Policy // defaults to 2CPM over Power
}

// DefaultFleetConfig returns a small fleet suitable for tests: 960 disks in
// 48 racks with gaps long enough to spin disks down between bursts under
// the default 2CPM policy.
func DefaultFleetConfig() FleetConfig {
	p := power.DefaultConfig()
	return FleetConfig{
		NumDisks:          960,
		NumRacks:          48,
		RequestsPerDisk:   40,
		ReplicationFactor: 3,
		BurstLen:          100,
		InterArrival:      40 * time.Microsecond,
		IdleGap:           p.Breakeven() + p.SpinDownTime + 8*time.Second,
		Seed:              1,
		Power:             p,
		Mech:              diskmodel.Cheetah15K5(),
		Policy:            power.TwoCompetitive{Config: p},
	}
}

func (c *FleetConfig) validate() error {
	switch {
	case c.NumDisks < 1 || c.NumRacks < 1:
		return fmt.Errorf("fleet: need at least one disk and one rack, got %d/%d", c.NumDisks, c.NumRacks)
	case c.NumDisks%c.NumRacks != 0:
		return fmt.Errorf("fleet: %d racks do not evenly divide %d disks", c.NumRacks, c.NumDisks)
	case c.Shards < 0:
		return fmt.Errorf("fleet: negative shard count %d", c.Shards)
	case c.Shards > 1 && c.NumRacks%c.Shards != 0:
		return fmt.Errorf("fleet: %d shards do not evenly divide %d racks (a rack must not straddle shards)", c.Shards, c.NumRacks)
	case c.RequestsPerDisk < 1:
		return fmt.Errorf("fleet: RequestsPerDisk = %d", c.RequestsPerDisk)
	case c.ReplicationFactor < 1 || c.ReplicationFactor > c.NumDisks/c.NumRacks:
		return fmt.Errorf("fleet: replication factor %d outside [1, %d disks/rack]", c.ReplicationFactor, c.NumDisks/c.NumRacks)
	case c.BurstLen < 1 || c.InterArrival <= 0 || c.IdleGap <= 0:
		return fmt.Errorf("fleet: invalid burst shape len=%d inter=%v gap=%v", c.BurstLen, c.InterArrival, c.IdleGap)
	}
	return nil
}

// FleetResult aggregates a fleet run. Every field except Wall and
// EventsPerSec is deterministic and identical at any Shards/Workers value.
type FleetResult struct {
	NumDisks int
	Shards   int
	Events   uint64        // kernel events executed
	Horizon  time.Duration // final virtual time
	Served   uint64

	Energy         float64 // joules across the fleet
	AlwaysOnEnergy float64 // idle-power floor: every disk spinning the whole run
	SpinUps        int
	SpinDowns      int

	MeanResponse  time.Duration
	P50, P90, P99 time.Duration

	Wall         time.Duration // wall-clock time of the event loop only
	EventsPerSec float64

	// Kernel is the engine-introspection snapshot (always populated; the
	// wall-clock buckets require FleetConfig.Telemetry). Its shard counters
	// depend on the shard count by nature, so Deterministic drops it.
	Kernel *simkernel.KernelStats
}

// Deterministic returns the result with the wall-clock measurements, the
// Shards echo and the kernel telemetry zeroed, for shard-count-invariance
// comparisons.
func (r FleetResult) Deterministic() FleetResult {
	r.Wall, r.EventsPerSec, r.Shards, r.Kernel = 0, 0, 0, nil
	return r
}

// fleetHistBuckets is sized for latBucket's range: 16 unary buckets below
// 16 ns plus 8 sub-buckets per power of two up to 2^63 ns.
const fleetHistBuckets = 512

// latBucket maps a latency in nanoseconds to a log-scale bucket with 8
// sub-buckets per octave (≈12% resolution). Monotone in ns, so percentiles
// reconstructed from counts are exact to bucket resolution.
func latBucket(ns uint64) int {
	if ns < 16 {
		return int(ns)
	}
	e := bits.Len64(ns) // >= 5
	m := (ns >> uint(e-4)) & 7
	return 16 + (e-5)*8 + int(m)
}

// bucketFloor returns the smallest latency mapping to bucket i.
func bucketFloor(i int) time.Duration {
	if i < 16 {
		return time.Duration(i)
	}
	e := 5 + (i-16)/8
	m := (i - 16) % 8
	return time.Duration((8 + m) << uint(e-4))
}

// fleetSink accumulates completions for one shard. Only the owning shard
// touches it during the run; sums and counts are folded across shards
// afterwards, so results are independent of how racks were partitioned.
type fleetSink struct {
	served uint64
	latSum int64 // nanoseconds; exact, order-invariant
	hist   [fleetHistBuckets]uint64
}

func (s *fleetSink) record(lat time.Duration) {
	s.served++
	s.latSum += int64(lat)
	s.hist[latBucket(uint64(lat))]++
}

// fleetGen is one rack's closed-loop request generator: a self-scheduling
// event chain that lives entirely on the rack's shard.
type fleetGen struct {
	sim    *simkernel.Engine
	sink   *fleetSink
	disks  []*diskmodel.Disk // this rack's stripe
	tickFn simkernel.Event   // bound once; rescheduling allocates nothing

	rng    uint64
	maxLBA int64
	idBase uint64
	nextID uint64
	left   int // requests remaining for this rack
	burst  int // remaining in the current burst

	rf           int
	burstLen     int
	interArrival time.Duration
	idleGap      time.Duration
}

// next is splitmix64: one multiply-xor round per draw, deterministic per
// rack, no shared state.
func (g *fleetGen) next() uint64 {
	g.rng += 0x9E3779B97F4A7C15
	z := g.rng
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// tick emits one request and reschedules itself: the intra-burst gap while
// the burst lasts, the idle gap (plus jitter, so racks drift apart) after.
// One splitmix draw feeds all three decisions — replica base, block/LBA,
// gap jitter — from disjoint bit ranges; a second draw per request would
// buy nothing but another multiply chain on the hot path.
func (g *fleetGen) tick(now time.Duration) {
	r := g.next()
	n := len(g.disks)
	// Ranges are reduced by multiply-shift (Lemire) instead of modulo:
	// three hardware divides per tick are measurable at fleet scale.
	base := int((r >> 48) * uint64(n) >> 16)
	// Heuristic replica choice over ReplicationFactor rack-local candidates:
	// prefer spinning disks (no spin-up energy or latency), break ties by
	// queue depth, then by candidate order — all state the rack owns. A
	// spinning, lightly loaded first candidate short-circuits: no further
	// replica would be chosen over it, so skip touching their cache lines.
	best := g.disks[base]
	bestSpin, bestLoad := best.State().Spinning(), best.Load()
	if !bestSpin || bestLoad > 1 {
		for j := 1; j < g.rf; j++ {
			d := g.disks[(base+j)%n]
			sp, ld := d.State().Spinning(), d.Load()
			if (sp && !bestSpin) || (sp == bestSpin && ld < bestLoad) {
				best, bestSpin, bestLoad = d, sp, ld
			}
		}
	}
	g.nextID++
	best.Submit(core.Request{
		ID:      core.RequestID(g.idBase + g.nextID),
		Block:   core.BlockID(r),
		Arrival: now,
		LBA:     int64((r & 0xFFFFFFFF) * uint64(g.maxLBA) >> 32),
	})
	g.left--
	if g.left == 0 {
		return
	}
	var gap time.Duration
	if g.burst > 1 {
		g.burst--
		gap = 1 + time.Duration((r>>32&0xFFFF)*uint64(2*g.interArrival)>>16) // mean ≈ interArrival
	} else {
		g.burst = g.burstLen
		gap = g.idleGap + time.Duration((r>>32&0xFFFF)*uint64(64*g.interArrival)>>16)
	}
	g.sim.After(gap, g.tickFn)
}

// RunFleet executes the fleet workload on the sharded kernel in
// free-running mode and returns its aggregates. Every shard count produces
// the same FleetResult modulo wall-clock fields.
func RunFleet(cfg FleetConfig) (*FleetResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.RelaxGC {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		defer debug.SetMemoryLimit(debug.SetMemoryLimit(8 << 30))
	}
	policy := cfg.Policy
	if policy == nil {
		policy = power.TwoCompetitive{Config: cfg.Power}
	}
	perRack := cfg.NumDisks / cfg.NumRacks

	se := simkernel.NewSharded(cfg.NumDisks, cfg.Shards, cfg.Workers)
	sinks := make([]*fleetSink, se.NumShards())
	for i := range sinks {
		sinks[i] = &fleetSink{}
	}

	disks := make([]*diskmodel.Disk, cfg.NumDisks)
	for rack := 0; rack < cfg.NumRacks; rack++ {
		first := rack * perRack
		sim := se.DiskSim(core.DiskID(first))
		sink := sinks[simkernel.ShardOf(core.DiskID(first), cfg.NumDisks, se.NumShards())]
		done := func(req core.Request, at time.Duration) {
			sink.record(at - req.Arrival)
		}
		for i := first; i < first+perRack; i++ {
			d, err := diskmodel.New(core.DiskID(i), cfg.Mech, cfg.Power, policy, sim, done, diskmodel.Options{})
			if err != nil {
				return nil, err
			}
			disks[i] = d
		}
		g := &fleetGen{
			sim:          sim,
			sink:         sink,
			disks:        disks[first : first+perRack],
			rng:          cfg.Seed ^ (uint64(rack)+1)*0xD1B54A32D192ED03,
			maxLBA:       cfg.Mech.MaxLBA,
			idBase:       uint64(rack) << 40,
			left:         perRack * cfg.RequestsPerDisk,
			burst:        cfg.BurstLen,
			rf:           cfg.ReplicationFactor,
			burstLen:     cfg.BurstLen,
			interArrival: cfg.InterArrival,
			idleGap:      cfg.IdleGap,
		}
		g.tickFn = g.tick
		// Stagger rack start times so bursts across racks interleave instead
		// of arriving as one fleet-wide wall.
		start := time.Duration(g.next() % uint64(cfg.IdleGap))
		sim.At(start, g.tickFn)
	}

	if cfg.Telemetry {
		se.EnableTelemetry()
	}
	t0 := time.Now()
	horizon := se.RunFree()
	wall := time.Since(t0)
	events := se.Fired()

	res := &FleetResult{
		NumDisks: cfg.NumDisks,
		Shards:   cfg.Shards,
		Events:   events,
		Horizon:  horizon,
		Wall:     wall,
		Kernel:   se.Telemetry(),
	}
	if s := wall.Seconds(); s > 0 {
		res.EventsPerSec = float64(events) / s
	}
	for _, d := range disks { // disk order: float sums deterministic
		st := d.Close()
		res.Energy += st.Energy
		res.SpinUps += st.SpinUps
		res.SpinDowns += st.SpinDowns
	}
	res.AlwaysOnEnergy = float64(cfg.NumDisks) * cfg.Power.IdlePower * horizon.Seconds()

	var latSum int64
	var hist [fleetHistBuckets]uint64
	for _, s := range sinks {
		res.Served += s.served
		latSum += s.latSum
		for i, c := range s.hist {
			hist[i] += c
		}
	}
	if res.Served > 0 {
		res.MeanResponse = time.Duration(uint64(latSum) / res.Served)
		res.P50 = histPercentile(&hist, res.Served, 50)
		res.P90 = histPercentile(&hist, res.Served, 90)
		res.P99 = histPercentile(&hist, res.Served, 99)
	}
	return res, nil
}

// histPercentile returns the floor of the bucket holding the q-th
// percentile sample.
func histPercentile(hist *[fleetHistBuckets]uint64, total uint64, q uint64) time.Duration {
	rank := (total*q + 99) / 100
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range hist {
		cum += c
		if cum >= rank {
			return bucketFloor(i)
		}
	}
	return bucketFloor(fleetHistBuckets - 1)
}
