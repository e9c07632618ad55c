package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/account"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/storage"
	"repro/internal/workload"
)

// diffRun is everything one side of the serving-equals-simulation check
// records about a run.
type diffRun struct {
	res     *storage.Result
	events  []byte // canonical JSONL event log
	states  []byte // power-state CSV log
	metrics []byte // metrics export
	carbon  account.Report
}

// diffSinks builds a fresh tracer, state log, collector and diurnal
// accumulator for one side of the comparison.
func diffSinks(t *testing.T, pc power.Config) (*obs.Tracer, *bytes.Buffer, *bytes.Buffer, *obs.Collector, *account.Accumulator) {
	t.Helper()
	var events, states bytes.Buffer
	tr := obs.NewTracer(256)
	tr.SetSink(&events, false)
	acc, err := account.NewAccumulator(pc, account.DiurnalGrid(), account.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	return tr, &events, &states, obs.NewCollector(), acc
}

func (r *diffRun) export(t *testing.T, c *obs.Collector) {
	t.Helper()
	var m bytes.Buffer
	if _, err := c.WriteTo(&m); err != nil {
		t.Fatal(err)
	}
	r.metrics = m.Bytes()
}

// simulate runs reqs through storage.RunOnline with the Eq. 6 heuristic.
func simulate(t *testing.T, sys storage.Config, p *placement.Placement, reqs []core.Request) diffRun {
	t.Helper()
	tr, events, states, col, acc := diffSinks(t, sys.Power)
	h := sched.Heuristic{Locations: p.Locations, Cost: sched.DefaultCost(sys.Power), Tracer: tr}
	res, err := storage.RunOnline(sys, p.Locations, h, reqs,
		storage.WithTracer(tr), storage.WithStateLog(states),
		storage.WithCollector(col), storage.WithAccounting(acc))
	if err != nil {
		t.Fatal(err)
	}
	run := diffRun{res: res, events: events.Bytes(), states: states.Bytes(), carbon: acc.Finalize()}
	run.export(t, col)
	return run
}

// serveSequential replays reqs through a Sequential engine with `workers`
// concurrent submitters.
func serveSequential(t *testing.T, cfg Config, reqs []core.Request, workers int) diffRun {
	t.Helper()
	tr, events, states, col, acc := diffSinks(t, cfg.System.Power)
	cfg.Sequential = true
	cfg.Tracer, cfg.StateLog, cfg.Collector, cfg.Accounting = tr, states, col, acc
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	submitTrace(t, e, reqs, workers)
	res, err := e.Drain()
	if err != nil {
		t.Fatal(err)
	}
	run := diffRun{res: res, events: events.Bytes(), states: states.Bytes(), carbon: acc.Finalize()}
	run.export(t, col)
	return run
}

var firedField = regexp.MustCompile(`"fired":(\d+)`)

// splitFired removes the run-end marker's kernel event count from a JSONL
// log and returns the rest of the log and the count.
func splitFired(t *testing.T, log []byte) ([]byte, uint64) {
	t.Helper()
	m := firedField.FindSubmatchIndex(log)
	if m == nil {
		t.Fatal("event log has no runend fired count")
	}
	rest := append(append([]byte{}, log[:m[0]]...), log[m[1]:]...)
	return rest, mustUint(t, string(log[m[2]:m[3]]))
}

// firstDiff names the first line where two logs differ.
func firstDiff(a, b []byte) string {
	al, bl := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  sim:   %s\n  serve: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths %d vs %d lines", len(al), len(bl))
}

// compareRuns holds serving to the simulator's output. The only allowed
// difference is the kernel event count: the simulator's arrivals are
// kernel events and serving's are not, so the simulator counts exactly n
// more.
func compareRuns(t *testing.T, sim, srv diffRun, n int) {
	t.Helper()
	simLog, simFired := splitFired(t, sim.events)
	srvLog, srvFired := splitFired(t, srv.events)
	if !bytes.Equal(simLog, srvLog) {
		t.Errorf("event logs differ at %s", firstDiff(simLog, srvLog))
	}
	if simFired != srvFired+uint64(n) {
		t.Errorf("runend fired: sim %d, serve %d; want serve + %d", simFired, srvFired, n)
	}
	if !bytes.Equal(sim.states, srv.states) {
		t.Errorf("state logs differ at %s", firstDiff(sim.states, srv.states))
	}
	a, b := reflect.ValueOf(*sim.res), reflect.ValueOf(*srv.res)
	for i := 0; i < a.NumField(); i++ {
		switch name := a.Type().Field(i).Name; name {
		case "Scheduler", "Response": // the name differs; samples below
		case "PerDisk":
			for d := range sim.res.PerDisk {
				if !reflect.DeepEqual(sim.res.PerDisk[d], srv.res.PerDisk[d]) {
					t.Errorf("disk %d stats: sim %+v, serve %+v", d, sim.res.PerDisk[d], srv.res.PerDisk[d])
					break
				}
			}
		default:
			if x, y := a.Field(i).Interface(), b.Field(i).Interface(); !reflect.DeepEqual(x, y) {
				t.Errorf("Result.%s: sim %v, serve %v", name, x, y)
			}
		}
	}
	simResp, _ := json.Marshal(sim.res.Response)
	srvResp, _ := json.Marshal(srv.res.Response)
	if !bytes.Equal(simResp, srvResp) {
		t.Error("response samples differ")
	}
	if !reflect.DeepEqual(sim.carbon, srv.carbon) {
		t.Errorf("carbon/cost reports differ: sim %.6g gCO2e $%.6g, serve %.6g gCO2e $%.6g",
			sim.carbon.GCO2e, sim.carbon.TotalUSD, srv.carbon.GCO2e, srv.carbon.TotalUSD)
	}
	served := map[string]bool{}
	for _, l := range strings.Split(string(srv.metrics), "\n") {
		served[l] = true
	}
	const firedGauge = "esched_sim_events_fired "
	for _, l := range strings.Split(string(sim.metrics), "\n") {
		if v, ok := strings.CutPrefix(l, firedGauge); ok {
			want := firedGauge + strconv.FormatUint(mustUint(t, v)-uint64(n), 10)
			if !served[want] {
				t.Errorf("metrics export: sim %q, want serve %q", l, want)
			}
			continue
		}
		if !served[l] {
			t.Errorf("serving metrics export lacks the simulator's line %q", l)
		}
	}
}

func mustUint(t *testing.T, s string) uint64 {
	t.Helper()
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return n
}

// tieTrace is one disk, one block and two requests, the second arriving
// exactly when the first one's idle timeout fires (its completion plus the
// 2CPM threshold). The simulator delivers the arrival ahead of the timeout
// at that instant, so the disk serves it idle.
func tieTrace(t *testing.T, sys storage.Config, p *placement.Placement) []core.Request {
	t.Helper()
	first := []core.Request{{ID: 0, Block: 0, LBA: workload.BlockLBA(0)}}
	res, err := storage.RunOnline(sys, p.Locations, sched.Static{Locations: p.Locations}, first)
	if err != nil {
		t.Fatal(err)
	}
	done := res.Response.Max()
	return append(first, core.Request{ID: 1, Block: 0, LBA: workload.BlockLBA(0), Arrival: done + sys.Power.Breakeven()})
}

// TestSequentialMatchesRunOnline is the serving-equals-simulation pin: a
// trace replayed through a Sequential engine, by one and by four
// concurrent submitters, yields the event log, state log, result, response
// samples, carbon/cost report and metrics export of storage.RunOnline with
// the same placement and cost.
func TestSequentialMatchesRunOnline(t *testing.T) {
	t.Parallel()
	cells := []struct {
		disks, blocks, rf, n int
		tie                  bool
	}{
		{disks: 10, blocks: 80, rf: 3, n: 400},
		{disks: 24, blocks: 2500, rf: 3, n: 6000},
		{disks: 180, blocks: 3000, rf: 3, n: 5000},
		{disks: 1, blocks: 1, rf: 1, tie: true},
	}
	for _, c := range cells {
		name := fmt.Sprintf("disks=%d/requests=%d", c.disks, c.n)
		if c.tie {
			name = "tie"
		}
		t.Run(name, func(t *testing.T) {
			cfg, p := testConfig(t, c.disks, c.blocks, c.rf)
			var reqs []core.Request
			if c.tie {
				reqs = tieTrace(t, cfg.System, p)
			} else {
				reqs = workload.CelloLike(c.n, c.blocks, 7)
			}
			sim := simulate(t, cfg.System, p, reqs)
			if sim.res.Served != len(reqs) {
				t.Fatalf("simulator served %d of %d", sim.res.Served, len(reqs))
			}
			for _, workers := range []int{1, 4} {
				compareRuns(t, sim, serveSequential(t, cfg, reqs, workers), len(reqs))
			}
		})
	}
}
