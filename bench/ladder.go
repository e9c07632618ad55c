package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/account"
	"repro/internal/core"
	"repro/internal/diskmodel"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/monitor"
	"repro/internal/offline"
	"repro/internal/placement"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/simkernel"
	"repro/internal/storage"
	"repro/internal/workload"
)

// ladderRow is one micro-benchmark of the layer ladder: a public function
// of one layer, timed alone with testing.Benchmark.
type ladderRow struct {
	name string
	// per is the number of items one op handles (a 64-request batch), and
	// scale converts ns to the row's unit; the row reports ns/op/per/scale
	// and allocs/op/per.
	per, scale float64
	fn         func(b *testing.B)
}

// ladderFixture is the shared input of the ladder rows: eschedd's
// population and placement, a Cello-like block sequence, and the recorded
// event stream of a small online run.
type ladderFixture struct {
	pc     power.Config
	plc    *placement.Placement
	router *serve.Router
	cost   sched.CostConfig
	view   sched.View
	seq    []core.BlockID // length a power of two

	// The 12-disk offline fixture and its recorded event stream.
	smallReqs []core.Request
	smallPlc  *placement.Placement
	smallCfg  storage.Config
	events    []obs.Event
}

func newLadderFixture() (*ladderFixture, error) {
	fx := &ladderFixture{pc: power.DefaultConfig()}
	var err error
	fx.plc, err = placement.Generate(placement.GenerateConfig{
		NumDisks: serveDisks, NumBlocks: serveBlocks, ReplicationFactor: serveRF, ZipfExponent: 1, Seed: 1,
	})
	if err != nil {
		return nil, err
	}
	fx.router = serve.NewRouter(fx.plc, 0)
	fx.cost = sched.DefaultCost(fx.pc)
	cfg := storage.DefaultConfig()
	live, err := storage.NewLive(cfg, fx.plc.Locations)
	if err != nil {
		return nil, err
	}
	fx.view = live.View()
	for _, r := range workload.CelloLike(1<<16, serveBlocks, 1) {
		fx.seq = append(fx.seq, r.Block)
	}

	fx.smallCfg = storage.DefaultConfig()
	fx.smallCfg.NumDisks = 12
	fx.smallPlc, err = placement.Generate(placement.GenerateConfig{
		NumDisks: 12, NumBlocks: 800, ReplicationFactor: 3, ZipfExponent: 1, Seed: 7,
	})
	if err != nil {
		return nil, err
	}
	fx.smallReqs = workload.CelloLike(1500, 800, 1)
	tr := obs.NewTracer(1 << 20)
	h := sched.Heuristic{Locations: fx.smallPlc.Locations, Cost: sched.DefaultCost(fx.smallCfg.Power), Tracer: tr}
	if _, err := storage.RunOnline(fx.smallCfg, fx.smallPlc.Locations, h, fx.smallReqs, storage.WithTracer(tr)); err != nil {
		return nil, err
	}
	fx.events = tr.Events()
	return fx, nil
}

func (fx *ladderFixture) rows() []ladderRow {
	return []ladderRow{
		{"ladder.simkernel.heap_ns", 1, 1, heapChain},
		{"ladder.simkernel.calendar_ns", 1, 1, calendarChain},
		{"ladder.diskmodel.submit_ns", 1, 1, fx.diskSubmit},
		{"ladder.sched.eq6_ns", 1, 1, fx.eq6},
		{"ladder.sched.heuristic_ns", 1, 1, fx.heuristic},
		{"ladder.sched.wsc_ns_per_req", 64, 1, fx.wsc},
		{"ladder.offline.solve_ms", 1, 1e6, fx.solve},
		{"ladder.serve.lookup_ns", 1, 1, fx.lookup},
		{"ladder.serve.submit_ns", 1, 1, func(b *testing.B) { fx.submit(b, false) }},
		{"ladder.serve.submit_collector_ns", 1, 1, func(b *testing.B) { fx.submit(b, true) }},
		{"ladder.serve.http_json_ns", 1, 1, func(b *testing.B) { fx.http(b, 1) }},
		{"ladder.serve.http_batch_ns_per_block", 64, 1, func(b *testing.B) { fx.http(b, 64) }},
		{"ladder.obs.tracer_ns", 1, 1, fx.tracer},
		{"ladder.monitor.ns", 1, 1, fx.monitor},
		{"ladder.account.ns", 1, 1, fx.account},
		{"ladder.flight.ns", 1, 1, fx.flight},
	}
}

var benchInit sync.Once

// measureRow runs one row and returns its value and allocations per item.
func measureRow(row ladderRow) (value, allocs float64) {
	benchInit.Do(func() {
		testing.Init()
		// A short benchtime keeps the whole ladder to seconds; every row
		// runs thousands of ops even so.
		_ = flag.Set("test.benchtime", "300ms") // registered by testing.Init
	})
	res := testing.Benchmark(row.fn)
	return float64(res.NsPerOp()) / row.per / row.scale, float64(res.AllocsPerOp()) / row.per
}

// runLadder measures every row and returns name → value, with the
// allocations as name.allocs.
func runLadder(w io.Writer) (map[string]float64, error) {
	fx, err := newLadderFixture()
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, row := range fx.rows() {
		v, a := measureRow(row)
		out[row.name], out[row.name+".allocs"] = v, a
		fmt.Fprintf(w, "  %-40s %12.4g   allocs %.4g\n", row.name, v, a)
	}
	return out, nil
}

// chainGap is a fixed pseudo-random event gap of 1-64 µs, so both kernel
// rows execute the same schedule.
func chainGap(i int) time.Duration {
	return time.Duration(1+(uint64(i)*0x9E3779B97F4A7C15>>58)) * time.Microsecond
}

// heapChain prices one At plus one Step on the serial heap engine with 64
// self-rescheduling event chains pending.
func heapChain(b *testing.B) {
	b.ReportAllocs()
	var e simkernel.Engine
	n := 0
	var tick simkernel.Event
	tick = func(now time.Duration) {
		if n < b.N {
			n++
			e.At(now+chainGap(n), tick)
		}
	}
	for i := 0; i < 64; i++ {
		e.At(time.Duration(i), tick)
	}
	b.ResetTimer()
	for e.Step() {
	}
}

// calendarChain prices the same schedule on one calendar-queue shard of the
// sharded kernel, drained with RunFree.
func calendarChain(b *testing.B) {
	b.ReportAllocs()
	se := simkernel.NewSharded(1, 1, 1)
	v := se.DiskSim(0)
	n := 0
	var tick simkernel.Event
	tick = func(now time.Duration) {
		if n < b.N {
			n++
			v.At(now+chainGap(n), tick)
		}
	}
	for i := 0; i < 64; i++ {
		v.At(time.Duration(i), tick)
	}
	b.ResetTimer()
	se.RunFree()
}

// diskSubmit prices one request through a spinning disk: Submit plus the
// kernel steps that serve it.
func (fx *ladderFixture) diskSubmit(b *testing.B) {
	b.ReportAllocs()
	var e simkernel.Engine
	d, err := diskmodel.New(0, diskmodel.Cheetah15K5(), fx.pc, power.TwoCompetitive{Config: fx.pc}, &e,
		func(core.Request, time.Duration) {}, diskmodel.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := fx.seq[i&(len(fx.seq)-1)]
		d.Submit(core.Request{ID: core.RequestID(i), Block: blk, Arrival: e.Now(), LBA: workload.BlockLBA(blk)})
		for d.Served() <= i && e.Step() {
		}
	}
}

var sinkF float64
var sinkD core.DiskID

// eq6 prices one evaluation of the Eq. 6 cost C(d) against live state.
func (fx *ladderFixture) eq6(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkF += fx.cost.Cost(fx.view, core.DiskID(i%serveDisks))
	}
}

// heuristic prices one online decision: the Eq. 6 argmin over a block's
// three replicas.
func (fx *ladderFixture) heuristic(b *testing.B) {
	b.ReportAllocs()
	h := sched.Heuristic{Locations: fx.router.Lookup, Cost: fx.cost}
	for i := 0; i < b.N; i++ {
		sinkD = h.Schedule(core.Request{Block: fx.seq[i&(len(fx.seq)-1)]}, fx.view)
	}
}

// wsc prices one weighted-set-cover round over 64 requests.
func (fx *ladderFixture) wsc(b *testing.B) {
	b.ReportAllocs()
	w := sched.WSC{Locations: fx.router.Lookup, Cost: fx.cost, Scratch: &sched.CoverScratch{}}
	reqs := make([]core.Request, 64)
	for i := 0; i < b.N; i++ {
		for j := range reqs {
			reqs[j] = core.Request{ID: core.RequestID(j), Block: fx.seq[(i*64+j)&(len(fx.seq)-1)]}
		}
		sinkD = w.ScheduleBatch(reqs, fx.view)[0]
	}
}

// solve prices the refined offline MWIS pipeline on the 12-disk fixture.
func (fx *ladderFixture) solve(b *testing.B) {
	b.ReportAllocs()
	opts := offline.BuildOptions{MaxSuccessors: 4, Workers: runtime.GOMAXPROCS(0)}
	for i := 0; i < b.N; i++ {
		if _, _, err := offline.SolveRefined(fx.smallReqs, fx.smallPlc.Locations, fx.smallCfg.Power, opts, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// lookup prices one replica lookup in the serving router.
func (fx *ladderFixture) lookup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkD = fx.router.Lookup(fx.seq[i&(len(fx.seq)-1)])[0]
	}
}

// engine builds eschedd's default engine (one shard, heuristic mode).
func (fx *ladderFixture) engine(col *obs.Collector) (*serve.Engine, error) {
	return serve.New(serve.Config{
		System: storage.Config{
			NumDisks: serveDisks, Power: fx.pc, Mech: diskmodel.Cheetah15K5(),
			Policy: power.TwoCompetitive{Config: fx.pc},
		},
		Router:    serve.NewRouter(fx.plc, 0),
		Cost:      sched.CostConfig{Alpha: 0.2, Beta: 10, Power: fx.pc},
		Collector: col,
	})
}

// submit prices one in-process Engine.Submit from a single submitter,
// without and with the collector eschedd always attaches.
func (fx *ladderFixture) submit(b *testing.B, collector bool) {
	var col *obs.Collector
	if collector {
		col = obs.NewCollector()
	}
	eng, err := fx.engine(col)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Submit(core.Request{Block: fx.seq[i&(len(fx.seq)-1)]}, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if _, err := eng.Drain(); err != nil {
		b.Fatal(err)
	}
}

// http prices the daemon's handler without a network: one POST of batch
// blocks through Handler().ServeHTTP into a recorder.
func (fx *ladderFixture) http(b *testing.B, batch int) {
	col := obs.NewCollector()
	eng, err := fx.engine(col)
	if err != nil {
		b.Fatal(err)
	}
	h := serve.NewServer(eng, col).Handler()
	path := "/v1/schedule"
	if batch > 1 {
		path = "/v1/schedule/batch"
	}
	bodies := make([][]byte, 256)
	for i := range bodies {
		var sb strings.Builder
		for j := 0; j < batch; j++ {
			blk := fx.seq[(i*batch+j)&(len(fx.seq)-1)]
			if batch == 1 {
				fmt.Fprintf(&sb, `{"block": %d}`, blk)
			} else {
				fmt.Fprintf(&sb, "%d\n", blk)
			}
		}
		bodies[i] = []byte(sb.String())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(bodies[i%len(bodies)])))
		if rec.Code != http.StatusOK {
			b.Fatalf("%s: status %d", path, rec.Code)
		}
	}
	b.StopTimer()
	if _, err := eng.Drain(); err != nil {
		b.Fatal(err)
	}
}

// The observer rows replay the recorded event stream, restarting it (with a
// fresh observer where the observer checks stream order) at its end.

func (fx *ladderFixture) tracer(b *testing.B) {
	b.ReportAllocs()
	tr := obs.NewTracer(512)
	tr.SetSink(io.Discard, true)
	for i := 0; i < b.N; i++ {
		tr.Emit(fx.events[i%len(fx.events)])
	}
	if err := tr.Flush(); err != nil {
		b.Fatal(err)
	}
}

func (fx *ladderFixture) monitor(b *testing.B) {
	b.ReportAllocs()
	var s *monitor.Suite
	for i := 0; i < b.N; i++ {
		k := i % len(fx.events)
		if k == 0 {
			s = monitor.NewSuite(monitor.Config{
				Power: fx.smallCfg.Power, Mech: fx.smallCfg.Mech, Policy: fx.smallCfg.Policy,
				Locations: fx.smallPlc.Locations,
			})
		}
		s.Observe(fx.events[k])
	}
}

func (fx *ladderFixture) account(b *testing.B) {
	b.ReportAllocs()
	var a *account.Accumulator
	for i := 0; i < b.N; i++ {
		k := i % len(fx.events)
		if k == 0 {
			var err error
			if a, err = account.NewAccumulator(fx.smallCfg.Power, account.DiurnalGrid(), account.DefaultCostModel()); err != nil {
				b.Fatal(err)
			}
		}
		a.Observe(fx.events[k])
	}
}

func (fx *ladderFixture) flight(b *testing.B) {
	b.ReportAllocs()
	rec := flight.New(flight.Config{})
	for i := 0; i < b.N; i++ {
		rec.Observe(fx.events[i%len(fx.events)])
	}
}
