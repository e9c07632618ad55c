package repro

import (
	"io"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/diskmodel"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/placement"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/workload"
)

// The tests below pin allocation counts on the paths where an absent
// observer must cost nothing. The counts are exact, so a change that adds
// an allocation to one of these paths fails here and must update the pin
// deliberately.

// raceEnabled is set by race_test.go: the race detector randomizes
// sync.Pool, so exact allocation counts do not hold under it.
var raceEnabled bool

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
}

// TestUntracedRunAllocs pins an untraced online run on the fixture at
// exactly 144 allocations: with no tracer, doctor, accountant or flight
// recorder attached, the observability hooks must cost nothing.
func TestUntracedRunAllocs(t *testing.T) {
	skipUnderRace(t)
	reqs, plc, cfg := benchFixture(t, 3)
	h := sched.Heuristic{Locations: plc.Locations, Cost: sched.DefaultCost(cfg.Power)}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := storage.RunOnline(cfg, plc.Locations, h, reqs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 144 {
		t.Errorf("untraced run: %.0f allocs, want 144", allocs)
	}
}

// TestFlightRecorderAllocs prices the flight recorder in allocations: on a
// run streaming binary events, attaching it with storage.WithFlight adds a
// constant 4 per run and none per event, so the delta is the same on the
// whole fixture (10,733 vs 10,729) and on its first half.
func TestFlightRecorderAllocs(t *testing.T) {
	skipUnderRace(t)
	reqs, plc, cfg := benchFixture(t, 3)
	rec := flight.New(flight.Config{Dir: t.TempDir()})
	run := func(reqs []Request, rec *flight.Recorder) float64 {
		return testing.AllocsPerRun(3, func() {
			tr := obs.NewTracer(512)
			tr.SetSink(io.Discard, true)
			h := sched.Heuristic{Locations: plc.Locations, Cost: sched.DefaultCost(cfg.Power), Tracer: tr}
			opts := []storage.RunOption{storage.WithTracer(tr)}
			if rec != nil {
				opts = append(opts, storage.WithFlight(rec))
			}
			if _, err := storage.RunOnline(cfg, plc.Locations, h, reqs, opts...); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, n := range []int{len(reqs), len(reqs) / 2} {
		base, on := run(reqs[:n], nil), run(reqs[:n], rec)
		if on-base != 4 {
			t.Errorf("%d requests: recorder adds %.0f allocs (%.0f vs %.0f), want 4", n, on-base, on, base)
		}
		if n == len(reqs) && base != 10729 {
			t.Errorf("traced run: %.0f allocs, want 10729", base)
		}
	}
	if rec.Dumps() != 0 {
		t.Fatalf("untriggered recorder wrote %d dumps", rec.Dumps())
	}
}

// submitAllocs returns the allocations per Engine.Submit, with no
// collector attached, on a 32-disk fleet.
func submitAllocs(t *testing.T, sequential bool) float64 {
	t.Helper()
	const disks, blocks = 32, 4000
	plc, err := placement.Generate(placement.GenerateConfig{
		NumDisks: disks, NumBlocks: blocks,
		ReplicationFactor: 3, ZipfExponent: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	pc := power.DefaultConfig()
	eng, err := serve.New(serve.Config{
		System: storage.Config{
			NumDisks: disks,
			Power:    pc,
			Mech:     diskmodel.Cheetah15K5(),
			Policy:   power.TwoCompetitive{Config: pc},
		},
		Router:      serve.NewRouter(plc, 0),
		MaxInFlight: 1024,
		RoundMax:    512,
		Sequential:  sequential,
	})
	if err != nil {
		t.Fatal(err)
	}
	trace := workload.CelloLike(1<<14, blocks, 7)
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		req := core.Request{Block: trace[i%len(trace)].Block}
		if sequential {
			req.ID = core.RequestID(i)
			req.Arrival = time.Duration(i) * 50 * time.Microsecond
		}
		i++
		if _, err := eng.Submit(req, 0); err != nil {
			t.Fatal(err)
		}
	})
	if _, err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	return allocs
}

// TestLiveSubmitAllocatesNothing pins the live hot submit path: every
// request is decided on its submitter's goroutine under the engine lock —
// lookup, admission, ID and arrival stamping, decision, dispatch and
// reply — and none of it may allocate.
func TestLiveSubmitAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	if allocs := submitAllocs(t, false); allocs != 0 {
		t.Errorf("live Submit: %.0f allocs/op, want 0", allocs)
	}
}

// TestSequentialSubmitAllocatesNothing pins the Sequential-mode submit
// path, where each request waits under the engine lock for its ID to come
// up, is decided, and wakes the waiting submitters.
func TestSequentialSubmitAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	if allocs := submitAllocs(t, true); allocs != 0 {
		t.Errorf("Sequential Submit: %.0f allocs/op, want 0", allocs)
	}
}

// TestNewRouterAllocs pins the serving router's set-up at exactly one
// allocation: it reads the placement's replica table in place, so building
// it never copies the per-block lists, whatever the block count.
func TestNewRouterAllocs(t *testing.T) {
	skipUnderRace(t)
	plc, err := placement.Generate(placement.GenerateConfig{
		NumDisks: 180, NumBlocks: 30000, ReplicationFactor: 3, ZipfExponent: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var r *serve.Router
	allocs := testing.AllocsPerRun(100, func() { r = serve.NewRouter(plc, 0) })
	if allocs != 1 {
		t.Errorf("NewRouter allocates %v times, want exactly 1", allocs)
	}
	if r.NumBlocks() != 30000 {
		t.Errorf("NumBlocks = %d, want 30000", r.NumBlocks())
	}
}
