package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/diskmodel"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/obs/monitor"
	"repro/internal/placement"
	"repro/internal/power"
	"repro/internal/storage"
	"repro/internal/workload"
)

func testConfig(t *testing.T, disks, blocks, rf int) (Config, *placement.Placement) {
	t.Helper()
	p := testPlacement(t, disks, blocks, rf)
	pc := power.DefaultConfig()
	return Config{
		System: storage.Config{
			NumDisks: disks,
			Power:    pc,
			Mech:     diskmodel.Cheetah15K5(),
			Policy:   power.TwoCompetitive{Config: pc},
		},
		Router: NewRouter(p, 8),
	}, p
}

// submitTrace feeds a pre-generated trace to a Sequential engine with
// `workers` concurrent submitters (worker g owns IDs congruent to g), each
// submitting its IDs in order. workers=1 is the serial baseline.
func submitTrace(t *testing.T, e *Engine, reqs []core.Request, workers int) {
	t.Helper()
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(reqs); i += workers {
				if _, err := e.Submit(reqs[i], 0); err != nil {
					errc <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// runSequential runs one full serving pass over reqs and returns the final
// accounting, the canonical JSONL event log and the state log.
func runSequential(t *testing.T, cfg Config, reqs []core.Request, workers int) (*storage.Result, []byte, []byte) {
	t.Helper()
	var buf, states bytes.Buffer
	tr := obs.NewTracer(256)
	tr.SetSink(&buf, false)
	cfg.Sequential = true
	cfg.Tracer = tr
	cfg.StateLog = &states
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	submitTrace(t, e, reqs, workers)
	res, err := e.Drain()
	if err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes(), states.Bytes()
}

// TestSequentialDeterminism is the determinism pin: the same request
// sequence served serially and highly concurrently must yield identical
// energy accounting — and, stronger, byte-identical event and state logs
// and identical response samples.
func TestSequentialDeterminism(t *testing.T) {
	t.Parallel()
	cfg, _ := testConfig(t, 10, 80, 3)
	cfg.MaxInFlight = 128
	reqs := workload.CelloLike(400, 80, 11)
	serial, serialLog, serialStates := runSequential(t, cfg, reqs, 1)
	if serial.Served != 400 || serial.Dropped != 0 {
		t.Fatalf("serial served/dropped = %d/%d", serial.Served, serial.Dropped)
	}
	if serial.Energy <= 0 {
		t.Fatal("no energy accounted")
	}
	if len(serialStates) == 0 {
		t.Fatal("serial run logged no state transitions")
	}
	serialResp, err := json.Marshal(serial.Response)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 16} {
		conc, concLog, concStates := runSequential(t, cfg, reqs, workers)
		if conc.Energy != serial.Energy {
			t.Errorf("workers=%d: energy %v != serial %v", workers, conc.Energy, serial.Energy)
		}
		if conc.EnergyByState != serial.EnergyByState {
			t.Errorf("workers=%d: by-state %v != serial %v", workers, conc.EnergyByState, serial.EnergyByState)
		}
		if conc.Served != serial.Served || conc.Dropped != serial.Dropped ||
			conc.SpinUps != serial.SpinUps || conc.SpinDowns != serial.SpinDowns ||
			conc.Horizon != serial.Horizon {
			t.Errorf("workers=%d: counters diverge: %+v vs %+v", workers, conc, serial)
		}
		if !bytes.Equal(concLog, serialLog) {
			t.Errorf("workers=%d: event log differs from serial run", workers)
		}
		if !bytes.Equal(concStates, serialStates) {
			t.Errorf("workers=%d: state log differs from serial run", workers)
		}
		resp, err := json.Marshal(conc.Response)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp, serialResp) {
			t.Errorf("workers=%d: response samples diverge", workers)
		}
	}
}

// TestSequentialDoctorClean attaches the full monitor suite to a concurrent
// sequential run: a serving run must satisfy every batch-path invariant.
func TestSequentialDoctorClean(t *testing.T) {
	t.Parallel()
	cfg, p := testConfig(t, 8, 60, 2)
	cfg.MaxInFlight = 64
	mon := monitor.NewSuite(monitor.Config{
		Power:     cfg.System.Power,
		Mech:      cfg.System.Mech,
		Policy:    cfg.System.Policy,
		Locations: p.Locations,
	})
	cfg.Sequential = true
	cfg.Tracer = obs.NewTracer(256)
	cfg.Monitor = mon
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	submitTrace(t, e, workload.CelloLike(300, 60, 3), 8)
	if _, err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if !mon.Passed() {
		var rep bytes.Buffer
		mon.WriteReport(&rep)
		t.Fatalf("doctor violations on a sequential serving run:\n%s", rep.String())
	}
}

// TestLiveDoctorClean runs wall-clock mode with the doctor attached and
// checks the stream stays clean under concurrent submitters.
func TestLiveDoctorClean(t *testing.T) {
	t.Parallel()
	cfg, p := testConfig(t, 16, 96, 2)
	cfg.MaxInFlight = 64
	mon := monitor.NewSuite(monitor.Config{
		Power:     cfg.System.Power,
		Mech:      cfg.System.Mech,
		Policy:    cfg.System.Policy,
		Locations: p.Locations,
	})
	cfg.Tracer = obs.NewTracer(256)
	cfg.Monitor = mon
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 400
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += 8 {
				if _, err := e.Submit(core.Request{Block: core.BlockID(i % 96)}, 0); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	res, err := e.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != n || res.Dropped != 0 {
		t.Fatalf("served/dropped = %d/%d, want %d/0", res.Served, res.Dropped, n)
	}
	if !mon.Passed() {
		var rep bytes.Buffer
		mon.WriteReport(&rep)
		t.Fatalf("doctor violations on a live serving run:\n%s", rep.String())
	}
}

// TestDrainUnderFullLoad is the drain stress test: submitters hammer a
// live engine while Drain races them, and the doctor plus the engine's own
// conservation check must still hold — every admitted request is either
// decided (and served by the drain) or rejected, never lost.
func TestDrainUnderFullLoad(t *testing.T) {
	t.Parallel()
	cfg, p := testConfig(t, 16, 96, 2)
	cfg.MaxInFlight = 256
	mon := monitor.NewSuite(monitor.Config{
		Power:     cfg.System.Power,
		Mech:      cfg.System.Mech,
		Policy:    cfg.System.Policy,
		Locations: p.Locations,
	})
	cfg.Tracer = obs.NewTracer(256)
	cfg.Monitor = mon
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var decided, rejected atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				_, err := e.Submit(core.Request{Block: core.BlockID((g*31 + i) % 96)}, 0)
				switch {
				case err == nil:
					decided.Add(1)
				case errors.Is(err, ErrDraining):
					rejected.Add(1)
					return
				case errors.Is(err, ErrQueueFull):
					rejected.Add(1)
				default:
					t.Errorf("submit: %v", err)
					return
				}
			}
		}(g)
	}
	time.Sleep(50 * time.Millisecond)
	res, err := e.Drain()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != int(decided.Load()) {
		t.Fatalf("served %d != decided %d (rejected %d)", res.Served, decided.Load(), rejected.Load())
	}
	if res.Dropped != 0 {
		t.Fatalf("dropped %d, want 0", res.Dropped)
	}
	if decided.Load() == 0 {
		t.Fatal("no requests decided before drain")
	}
	if !mon.Passed() {
		var rep bytes.Buffer
		mon.WriteReport(&rep)
		t.Fatalf("doctor violations on drain under load:\n%s", rep.String())
	}
}

// TestDrainingCountedOnce: one rejected submission during drain must
// increment the draining outcome counter exactly once.
func TestDrainingCountedOnce(t *testing.T) {
	t.Parallel()
	cfg, _ := testConfig(t, 4, 20, 2)
	col := obs.NewCollector()
	cfg.Collector = col
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(core.Request{Block: 1}, 0); !errors.Is(err, ErrDraining) {
		t.Fatalf("err = %v, want ErrDraining", err)
	}
	c := col.Counter("esched_serve_requests_total", "Serving submissions by outcome.",
		obs.Label{Key: "outcome", Value: "draining"})
	if got := c.Value(); got != 1 {
		t.Fatalf("draining counter = %v after one rejection, want 1", got)
	}
	if got := e.inflight.Load(); got != 0 {
		t.Fatalf("inflight = %d after rejection, want 0", got)
	}
}

// TestWSCRoundsServeAll runs live (wall-clock) mode with WSC decision
// rounds fed by concurrent batch submitters and checks the exact round
// count, full conservation, and that every dispatch carries the ID of a
// decision event for the same request and disk, as on storage.RunBatch's
// path.
func TestWSCRoundsServeAll(t *testing.T) {
	t.Parallel()
	const n, workers = 200, 8
	cfg, p := testConfig(t, 8, 60, 2)
	cfg.Mode = ModeWSC
	cfg.MaxInFlight = n // every batch is admitted whole
	cfg.RoundMax = 10   // each worker's 25 blocks: rounds of 10, 10 and 5
	mon := monitor.NewSuite(monitor.Config{
		Power:     cfg.System.Power,
		Mech:      cfg.System.Mech,
		Policy:    cfg.System.Policy,
		Locations: p.Locations,
	})
	var log bytes.Buffer
	cfg.Tracer = obs.NewTracer(256)
	cfg.Tracer.SetSink(&log, false)
	cfg.Monitor = mon
	col := obs.NewCollector()
	cfg.Collector = col
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var reqs []core.Request
			for i := g; i < n; i += workers {
				reqs = append(reqs, core.Request{Block: core.BlockID(i % 60)})
			}
			for _, c := range e.submitBatch(reqs) {
				if c.err != nil {
					t.Error(c.err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	res, err := e.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != n || res.Dropped != 0 {
		t.Fatalf("served/dropped = %d/%d, want %d/0", res.Served, res.Dropped, n)
	}
	if !mon.Passed() {
		var rep bytes.Buffer
		mon.WriteReport(&rep)
		t.Fatalf("doctor violations:\n%s", rep.String())
	}
	if rounds := col.Counter("esched_serve_rounds_total", "Decision rounds executed.").Value(); rounds != 3*workers {
		t.Fatalf("%v rounds for %d batches of 25 at RoundMax 10, want %d", rounds, workers, 3*workers)
	}
	checkDecisionIDs(t, &log)
}

// TestBatchRounds pins the round rule of the batch endpoint: a batch is
// decided in rounds of at most RoundMax of its own blocks, each round at
// one arrival instant, in either mode; and a batch larger than the
// remaining admission slots is rejected on exactly its trailing lines.
func TestBatchRounds(t *testing.T) {
	t.Parallel()
	for _, mode := range []Mode{ModeHeuristic, ModeWSC} {
		var log bytes.Buffer
		e, ts, col := newTestServer(t, func(c *Config) {
			c.Mode, c.RoundMax = mode, 4
			c.Tracer = obs.NewTracer(256)
			c.Tracer.SetSink(&log, false)
		})
		resp, body := postJSON(t, ts.URL+"/v1/schedule/batch", "0 1 2 3 4 5 6 7 8 9")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%v: status %d: %s", mode, resp.StatusCode, body)
		}
		lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
		if len(lines) != 10 {
			t.Fatalf("%v: %d lines, want 10: %q", mode, len(lines), body)
		}
		for i, ln := range lines {
			f := strings.Fields(ln)
			if len(f) != 2 || f[0] == "!" {
				t.Fatalf("%v: line %d = %q, want \"disk at_us\"", mode, i, ln)
			}
			if first := strings.Fields(lines[i/4*4])[1]; f[1] != first {
				t.Errorf("%v: line %d decided at %s µs, its round at %s µs", mode, i, f[1], first)
			}
		}
		if _, err := e.Drain(); err != nil {
			t.Fatal(err)
		}
		var m bytes.Buffer
		col.WriteTo(&m)
		for _, want := range []string{
			"esched_serve_rounds_total 3",
			`esched_serve_round_size_bucket{le="1"} 0`,
			`esched_serve_round_size_bucket{le="2"} 1`,
			`esched_serve_round_size_bucket{le="4"} 3`,
			"esched_serve_round_size_sum 10",
		} {
			if !strings.Contains(m.String(), want+"\n") {
				t.Errorf("%v: export lacks %q:\n%s", mode, want, grepLines(m.String(), "esched_serve_round"))
			}
		}
		checkDecisionIDs(t, &log)
	}

	// Ten blocks with replicas (and one without) against eight slots: the
	// unknown block is rejected without taking a slot, and the last two
	// blocks are the ones refused.
	e, ts, col := newTestServer(t, func(c *Config) { c.MaxInFlight, c.RoundMax = 8, 4 })
	resp, body := postJSON(t, ts.URL+"/v1/schedule/batch", "0 1 99999 2 3 4 5 6 7 8 9")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	if len(lines) != 11 {
		t.Fatalf("%d lines, want 11: %q", len(lines), body)
	}
	for i, ln := range lines {
		want := ""
		switch {
		case i == 2:
			want = "! no_replica"
		case i >= 9:
			want = "! queue_full"
		}
		if want == "" && strings.HasPrefix(ln, "!") {
			t.Errorf("line %d = %q, want a decision", i, ln)
		} else if want != "" && ln != want {
			t.Errorf("line %d = %q, want %q", i, ln, want)
		}
	}
	if _, err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	full := col.Counter("esched_serve_requests_total", "Serving submissions by outcome.",
		obs.Label{Key: "outcome", Value: "queue_full"})
	if got := full.Value(); got != 2 {
		t.Errorf("queue_full counter = %v, want 2", got)
	}
}

// checkDecisionIDs reads a drained run's event log and checks that every
// dispatch carries the ID of a decision event for the same request and
// disk.
func checkDecisionIDs(t *testing.T, log *bytes.Buffer) {
	t.Helper()
	evs, err := analyze.Read(log)
	if err != nil {
		t.Fatal(err)
	}
	r, err := analyze.New(evs)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range r.ReqOrder {
		for _, d := range r.Requests[id].Dispatches {
			ev := r.Decisions[d.Dec]
			if d.Dec == 0 || ev == nil || ev.Req != id || ev.Disk != d.Disk {
				t.Fatalf("request %d dispatched to disk %d with decision %d (%+v)", id, d.Disk, d.Dec, ev)
			}
		}
	}
}

// TestBackpressureQueueFull parks requests behind a withheld sequential ID
// so the admission bound is hit deterministically.
func TestBackpressureQueueFull(t *testing.T) {
	t.Parallel()
	cfg, _ := testConfig(t, 4, 20, 2)
	cfg.Sequential = true
	cfg.MaxInFlight = 4
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// IDs 1..4 can never be decided while ID 0 is withheld: they park in
	// the reorder buffer and hold their admission slots.
	var wg sync.WaitGroup
	for id := 1; id <= 4; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			_, err := e.Submit(core.Request{ID: core.RequestID(id), Block: 1}, 0)
			if !errors.Is(err, ErrDraining) {
				t.Errorf("parked request %d: err = %v, want ErrDraining", id, err)
			}
		}(id)
	}
	waitFor(t, func() bool { return e.inflight.Load() == 4 })
	if _, err := e.Submit(core.Request{ID: 5, Block: 1}, 0); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: err = %v, want ErrQueueFull", err)
	}
	// Graceful drain rejects the parked backlog (their predecessor never
	// arrives) and still reconciles cleanly.
	res, err := e.Drain()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if res.Served != 0 || res.Dropped != 0 {
		t.Fatalf("served/dropped = %d/%d, want 0/0", res.Served, res.Dropped)
	}
	if _, err := e.Submit(core.Request{ID: 6, Block: 1}, 0); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit: err = %v, want ErrDraining", err)
	}
}

// TestGracefulDrain checks that in-flight work completes and accounting
// reconciles when the engine is stopped mid-service.
func TestGracefulDrain(t *testing.T) {
	t.Parallel()
	cfg, _ := testConfig(t, 6, 40, 2)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 150
	for i := 0; i < n; i++ {
		if _, err := e.Submit(core.Request{Block: core.BlockID(i % 40)}, 0); err != nil {
			t.Fatal(err)
		}
	}
	// The live snapshot carries the kernel's one shard.
	if snap := e.Snapshot(); snap.Totals.Decisions != n || snap.Kernel == nil ||
		len(snap.Kernel.Shards) != 1 || snap.Kernel.Events != snap.Kernel.Shards[0].Events {
		t.Fatalf("live snapshot totals %+v, kernel %+v", snap.Totals, snap.Kernel)
	}
	// Decisions are made; disk service is still outstanding in virtual time.
	res, err := e.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != n || res.Dropped != 0 {
		t.Fatalf("served/dropped = %d/%d, want %d/0", res.Served, res.Dropped, n)
	}
	if res.Energy <= 0 {
		t.Fatal("no energy accounted")
	}
	if _, err := e.Submit(core.Request{Block: 1}, 0); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit: err = %v, want ErrDraining", err)
	}
	if res2, err := e.Drain(); err != nil || res2 != res {
		t.Fatalf("second Drain = (%p, %v), want same result", res2, err)
	}
	snap := e.Snapshot()
	if snap.Totals.Served != n || !snap.Totals.Draining {
		t.Fatalf("final snapshot totals = %+v", snap.Totals)
	}
}

// TestDeadlineExpiry blocks the decision loop long enough for a short
// per-request deadline to lapse; the request must be dropped (504 path)
// and the run must still reconcile.
func TestDeadlineExpiry(t *testing.T) {
	t.Parallel()
	cfg, _ := testConfig(t, 4, 20, 2)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	blockLoop(e, 60*time.Millisecond)
	if _, err := e.Submit(core.Request{Block: 1}, time.Millisecond); !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	// A generous deadline on a live loop decides fine.
	if _, err := e.Submit(core.Request{Block: 1}, time.Minute); err != nil {
		t.Fatalf("generous deadline: %v", err)
	}
	res, err := e.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != 1 || res.Dropped != 1 {
		t.Fatalf("served/dropped = %d/%d, want 1/1", res.Served, res.Dropped)
	}
}

func TestSubmitUnknownBlock(t *testing.T) {
	t.Parallel()
	cfg, _ := testConfig(t, 4, 20, 2)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(core.Request{Block: 999}, 0); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("err = %v, want ErrNoReplica", err)
	}
	if _, err := e.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestDecisionFields sanity-checks the decision surface against the view.
func TestDecisionFields(t *testing.T) {
	t.Parallel()
	cfg, p := testConfig(t, 4, 20, 2)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.Submit(core.Request{Block: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	locs := p.Locations(3)
	found := false
	for _, l := range locs {
		if l == d.Disk {
			found = true
		}
	}
	if !found {
		t.Fatalf("decision disk %d not a replica of block 3 (%v)", d.Disk, locs)
	}
	if d.Cost < 0 || d.EnergyJ < 0 {
		t.Fatalf("negative cost %v / energy %v", d.Cost, d.EnergyJ)
	}
	if e.Decisions() != 1 {
		t.Fatalf("Decisions() = %d, want 1", e.Decisions())
	}
	if _, err := e.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestNewValidation covers constructor rejections.
func TestNewValidation(t *testing.T) {
	t.Parallel()
	cfg, _ := testConfig(t, 4, 20, 2)
	if _, err := New(Config{System: cfg.System}); err == nil {
		t.Error("nil router accepted")
	}
	bad := cfg
	bad.System.NumDisks = 5
	if _, err := New(bad); err == nil {
		t.Error("router/system disk mismatch accepted")
	}
	bad = cfg
	bad.Sequential, bad.Mode = true, ModeWSC
	if _, err := New(bad); err == nil {
		t.Error("Sequential ModeWSC accepted (its rounds would be decided by the heuristic)")
	}
}

// TestDrainWithoutRequests drains an engine that decided nothing, in live
// and in Sequential mode: the run still settles to a positive horizon, so
// the normalized energy eschedd prints is finite.
func TestDrainWithoutRequests(t *testing.T) {
	t.Parallel()
	for _, sequential := range []bool{false, true} {
		cfg, _ := testConfig(t, 4, 20, 2)
		cfg.Sequential = sequential
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Drain()
		if err != nil {
			t.Fatal(err)
		}
		if n := res.NormalizedEnergy(); res.Horizon <= 0 || n <= 0 || math.IsInf(n, 0) || math.IsNaN(n) {
			t.Errorf("sequential=%v: horizon %v, normalized energy %v", sequential, res.Horizon, n)
		}
	}
}

// blockLoop occupies the engine for d without deciding: it takes the
// engine lock now and releases it after d, so submissions wait for it.
func blockLoop(e *Engine, d time.Duration) {
	e.mu.Lock()
	go func() {
		time.Sleep(d)
		e.mu.Unlock()
	}()
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
