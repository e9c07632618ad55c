package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/diskmodel"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/placement"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/workload"
)

// eschedd's defaults: the population and block space the serving workload
// runs against.
const (
	serveDisks  = 180
	serveBlocks = 30_000
	serveRF     = 3
)

// daemon is one serving stack as eschedd assembles it by default, bound to
// a loopback port.
type daemon struct {
	router *serve.Router
	eng    *serve.Engine
	col    *obs.Collector
	base   string
	stop   func() error
	// Traced runs time every /v1/ request inside the HTTP server.
	handlerNS, handled atomic.Int64
}

// startDaemon builds the placement and the engine, binds a loopback port
// and waits for the first healthy /healthz: the set-up a daemon pays before
// serving.
func startDaemon(cfg runConfig) (*daemon, error) {
	plc, err := placement.Generate(placement.GenerateConfig{
		NumDisks: serveDisks, NumBlocks: serveBlocks,
		ReplicationFactor: serveRF, ZipfExponent: 1, Seed: cfg.seed,
	})
	if err != nil {
		return nil, err
	}
	pc := power.DefaultConfig()
	d := &daemon{router: serve.NewRouter(plc, 0), col: obs.NewCollector()}
	d.eng, err = serve.New(serve.Config{
		System: storage.Config{
			NumDisks: serveDisks,
			Power:    pc,
			Mech:     diskmodel.Cheetah15K5(),
			Policy:   power.TwoCompetitive{Config: pc},
		},
		Router:      d.router,
		Cost:        sched.CostConfig{Alpha: 0.2, Beta: 10, Power: pc},
		Mode:        serve.ModeHeuristic,
		MaxInFlight: 4096,
		RoundMax:    512,
		Collector:   d.col,
	})
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(d.eng, d.col)
	if cfg.trace {
		err = d.listenTimed(srv.Handler())
	} else {
		var addr string
		addr, d.stop, err = srv.Serve("127.0.0.1:0")
		d.base = "http://" + addr
	}
	if err != nil {
		_, _ = d.eng.Drain() // nothing was served; only the bind failed
		return nil, err
	}
	if err := d.waitHealthy(); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// listenTimed serves h behind a middleware that sums the server-side time
// of every scheduling request.
func (d *daemon) listenTimed(h http.Handler) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !strings.HasPrefix(req.URL.Path, "/v1/") {
			h.ServeHTTP(w, req)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, req)
		d.handlerNS.Add(int64(time.Since(t0)))
		d.handled.Add(1)
	})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // always http.ErrServerClosed after Close
	}()
	d.base = "http://" + ln.Addr().String()
	d.stop = func() error {
		err := hs.Close()
		<-done
		return err
	}
	return nil
}

func (d *daemon) waitHealthy() error {
	c := &http.Client{Timeout: 5 * time.Second}
	defer c.CloseIdleConnections()
	var last error
	for i := 0; i < 100; i++ {
		resp, err := c.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("/healthz = %d", resp.StatusCode)
		}
		last = err
		time.Sleep(10 * time.Millisecond)
	}
	return last
}

// close drains the engine and closes the listener, returning the drain's
// final accounting.
func (d *daemon) close() (*storage.Result, error) {
	res, err := d.eng.Drain()
	if serr := d.stop(); err == nil {
		err = serr
	}
	return res, err
}

// windowLen is the length of one measured serving window: a run reports
// the median over its windows, so a stall or a burst of interference moves
// one window, not the run.
const windowLen = time.Second

// window is what the client completed inside one measured window.
type window struct {
	decided  int64         // POSTs that completed in it with a valid decision
	posts    int           // POSTs that completed in it
	postTime time.Duration // their summed latency
	cpu      time.Duration // process CPU over the window
}

// clientLoad is what the closed-loop client observed.
type clientLoad struct {
	windows   []window
	measure   time.Duration // the measured windows together
	latSum    time.Duration // POST time inside the measured windows
	decided   int64         // blocks decided, warm-up included
	attempted int64         // blocks sent
	errs      []string
	allSum    time.Duration // client time over every POST
	allPosts  int64
}

// serveInput is the client's request sequence: one JSON body per block,
// generated from the seed before set-up starts.
type serveInput struct {
	bodies [][]byte
	blocks []core.BlockID
}

func makeServeInput(seed int64) serveInput {
	const sequence = 1 << 17
	var in serveInput
	for _, req := range workload.CelloLike(sequence, serveBlocks, seed) {
		in.blocks = append(in.blocks, req.Block)
		in.bodies = append(in.bodies, []byte(fmt.Sprintf(`{"block": %d}`, req.Block)))
	}
	return in
}

// drive runs the closed loop over one keep-alive connection: the client
// sends its next POST when the previous reply has arrived, for warm plus
// measure. A POST counts toward the measured window it completes in, if it
// was sent after warm-up; every POST is checked. One connection keeps the
// client and the server to about one busy CPU between them, so a run
// measures the daemon rather than how the scheduler interleaves them.
func (d *daemon) drive(in serveInput, warm, measure time.Duration) *clientLoad {
	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
	defer client.CloseIdleConnections()
	nwin := int(measure / windowLen)
	if nwin < 1 {
		nwin = 1
	}
	l := &clientLoad{windows: make([]window, nwin), measure: time.Duration(nwin) * windowLen}
	start := time.Now()
	from, to := start.Add(warm), start.Add(warm+l.measure)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			j := i % len(in.bodies)
			t0 := time.Now()
			if !t0.Before(to) {
				return
			}
			err := d.post(client, in.bodies[j], in.blocks[j])
			t1 := time.Now()
			l.attempted++
			if err != nil {
				if len(l.errs) < 3 {
					l.errs = append(l.errs, err.Error())
				}
			} else {
				l.decided++
			}
			lat := t1.Sub(t0)
			l.allSum += lat
			l.allPosts++
			if !t0.Before(from) && t1.Before(to) {
				w := &l.windows[t1.Sub(from)/windowLen]
				if err == nil {
					w.decided++
				}
				w.posts++
				w.postTime += lat
				l.latSum += lat
			}
		}
	}()
	cpuAt := make([]time.Duration, nwin+1)
	for i := range cpuAt {
		time.Sleep(time.Until(from.Add(time.Duration(i) * windowLen)))
		cpuAt[i] = cpuTime()
	}
	<-done
	for i := range l.windows {
		l.windows[i].cpu = cpuAt[i+1] - cpuAt[i]
	}
	return l
}

// post sends one request and checks that its block was decided onto one of
// its replicas.
func (d *daemon) post(client *http.Client, body []byte, block core.BlockID) error {
	resp, err := client.Post(d.base+"/v1/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/v1/schedule: status %d", resp.StatusCode)
	}
	var sr serve.ScheduleResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		return err
	}
	if core.BlockID(sr.Block) != block || !d.isReplica(block, sr.Disk) {
		return fmt.Errorf("block %d decided onto disk %d, replicas %v", block, sr.Disk, d.router.Lookup(block))
	}
	return nil
}

func (d *daemon) isReplica(b core.BlockID, disk int) bool {
	for _, r := range d.router.Lookup(b) {
		if int(r) == disk {
			return true
		}
	}
	return false
}

func runServeJSON(cfg runConfig, r *result) {
	in := makeServeInput(cfg.seed)
	warm, setups := time.Second, 11
	if cfg.smoke {
		warm, setups = 200*time.Millisecond, 2
	}
	// Set up several daemons and keep the last; each earlier one is
	// drained and closed unused. Each starts from a collected heap, as a
	// fresh daemon process does.
	var d *daemon
	for i := 0; i < setups; i++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		d, err = startDaemon(cfg)
		if err != nil {
			r.fail("set-up: %v", err)
			return
		}
		r.sample("setup_s", time.Since(t0).Seconds())
		if i < setups-1 {
			if _, err := d.close(); err != nil {
				r.fail("closing an unused daemon: %v", err)
				return
			}
		}
	}
	l := d.drive(in, warm, cfg.seconds)
	r.Attempted, r.Failed = l.attempted, l.attempted-l.decided
	for _, e := range l.errs {
		r.fail("client: %s", e)
	}
	if got := d.eng.Decisions(); got != uint64(l.decided) {
		r.fail("engine made %d decisions, the client saw %d", got, l.decided)
	}
	var prom map[string]float64
	if cfg.trace {
		var err error
		if prom, err = scrape(d.base + "/metrics"); err != nil {
			r.fail("/metrics: %v", err)
		}
	}
	res, err := d.close()
	if err != nil {
		r.fail("drain: %v", err)
		return
	}
	if n := int64(res.Served + res.Dropped); n != l.decided {
		r.fail("drain accounted %d served + %d dropped for %d decisions", res.Served, res.Dropped, l.decided)
	}

	var decided int64
	for _, w := range l.windows {
		decided += w.decided
	}
	r.Throughput = float64(decided) / l.measure.Seconds()
	if cfg.trace {
		d.setLayers(r, l, prom, res)
		// Drain reconciles the executed-event gauge to the kernel's final count.
		r.Metrics["simkernel.events"] = d.col.Gauge("esched_sim_events_fired", "").Value()
		return
	}
	for _, w := range l.windows {
		if w.decided == 0 {
			r.fail("a measured window decided nothing")
			return
		}
		r.sampleCalls(float64(w.decided), windowLen, w.posts, w.postTime, w.cpu)
	}
	r.sample("peak_rss_mb", peakRSSMB())
}

// scrape reads a Prometheus text export into series → value.
func scrape(url string) (map[string]float64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return analyze.ParseMetricValues(data)
}

// setLayers splits a POST's client-observed time into transport (client
// time outside the handler), the HTTP layer's own time (handler time
// outside the decision's engine lifecycle) and the engine's queue, decide
// and dispatch phases, read from the span histograms eschedd exports.
func (d *daemon) setLayers(r *result, l *clientLoad, prom map[string]float64, res *storage.Result) {
	m := r.Metrics
	handlerUS := ratio(float64(d.handlerNS.Load())/1e3, float64(d.handled.Load()))
	clientUS := ratio(float64(l.allSum.Nanoseconds())/1e3, float64(l.allPosts))
	var spanUS float64
	for _, phase := range []string{"queue", "decide", "dispatch"} {
		sel := `{phase="` + phase + `"}`
		us := 1e6 * ratio(prom["esched_span_phase_seconds_sum"+sel], prom["esched_span_phase_seconds_count"+sel])
		m["serve."+phase+"_us"] = us
		spanUS += us
	}
	m["serve.http_self_us"] = handlerUS - spanUS
	m["serve.transport_us"] = clientUS - handlerUS
	m["serve.rounds"] = prom["esched_serve_rounds_total"]
	m["serve.round_size_mean"] = ratio(prom["esched_serve_round_size_sum"], prom["esched_serve_round_size_count"])
	m["sched.heuristic_calls"] = float64(l.decided)
	m["storage.requests"] = float64(res.Served)
	m["power.spin_ups"] = float64(res.SpinUps)
	m["power.spin_downs"] = float64(res.SpinDowns)
	// The connection is always either waiting on a POST or preparing the
	// next one; coverage is the share of its time spent in POSTs.
	m["trace.coverage_frac"] = l.latSum.Seconds() / l.measure.Seconds()
}
