// Command eschedd is the online serving daemon for energy-aware replica
// scheduling: where esched replays a complete trace in batch, eschedd
// keeps the simulated disk population live and serves streaming Eq. 6
// scheduling decisions over HTTP (see docs/SERVING.md).
//
//	eschedd serve   -addr :8080 -disks 180 -rf 3            # the daemon
//	eschedd loadgen -addr HOST:PORT -requests 50000         # drive it, SLO report
//	eschedd probe   -addr HOST:PORT                         # healthz + metrics check
//
// serve builds the placement from the same flags esched uses
// (-disks/-blocks/-rf/-z/-seed), so an event log written with -events can
// be replayed and invariant-checked offline with
//
//	tracelens doctor -disks N -blocks B -rf R -z Z -seed S LOG
//
// Each request passes one admission bound and is decided under one engine
// mutex on one simulated storage system (see internal/serve).
//
// On SIGTERM/SIGINT the daemon drains gracefully: new requests get 503,
// admitted ones are decided, outstanding disk work completes, and the
// final accounting (energy, spin operations, served/dropped) is printed
// with the metrics export reconciled bit-exactly to the power meters.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/cmd/internal/runobs"
	"repro/internal/core"
	"repro/internal/diskmodel"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

const usageText = `usage: eschedd <serve|loadgen|probe> [flags]

  serve    run the scheduling daemon (eschedd serve -h)
  loadgen  drive a running daemon and print an SLO report (eschedd loadgen -h)
  probe    check /healthz and /metrics of a running daemon (eschedd probe -h)`

// usageError marks a command-line mistake; run maps it to exit code 2. An
// empty message means the diagnostics are already on stderr.
type usageError string

func (e usageError) Error() string { return string(e) }

// run is the CLI entry point. Its exit codes: 0 for success or -h, 1 for
// an operational failure, 2 for a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	err := dispatch(args, stdout, stderr)
	var ue usageError
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &ue):
		if ue != "" {
			fmt.Fprintln(stderr, "eschedd:", ue.Error())
		}
		return 2
	default:
		fmt.Fprintln(stderr, "eschedd:", err)
		return 1
	}
}

func dispatch(args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		fmt.Fprintln(stderr, usageText)
		return usageError("")
	}
	switch cmd, rest := args[0], args[1:]; cmd {
	case "serve":
		return runServe(rest, stdout, stderr)
	case "loadgen":
		return runLoadgen(rest, stdout, stderr)
	case "probe":
		return runProbe(rest, stdout, stderr)
	case "-h", "-help", "--help", "help":
		fmt.Fprintln(stderr, usageText)
		return nil
	default:
		fmt.Fprintln(stderr, usageText)
		return usageError(fmt.Sprintf("unknown subcommand %q", cmd))
	}
}

// parseFlags parses a subcommand's flags, reporting on stderr: -h passes
// through, any other failure is a usage error the flag set has printed.
func parseFlags(fs *flag.FlagSet, args []string, stderr io.Writer) error {
	fs.SetOutput(stderr)
	err := fs.Parse(args)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return err
	}
	return usageError("")
}

func runServe(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("eschedd serve", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":8080", "listen address (\":0\" = ephemeral)")
		addrFile  = fs.String("addrfile", "", "write the bound address to this file (for scripts)")
		disks     = fs.Int("disks", 180, "number of disks")
		blocks    = fs.Int("blocks", 30000, "number of blocks")
		rf        = fs.Int("rf", 3, "data replication factor")
		zipf      = fs.Float64("z", 1, "data locality Zipf exponent (0 = uniform)")
		seed      = fs.Int64("seed", 1, "random seed")
		mode      = fs.String("mode", "heuristic", "decision path: heuristic | wsc")
		alpha     = fs.Float64("alpha", 0.2, "cost-function energy/performance mix")
		beta      = fs.Float64("beta", 10, "cost-function unit scale")
		queue     = fs.Int("queue", 4096, "admission bound (queue-full submissions get 429)")
		roundMax  = fs.Int("roundmax", 512, "max requests decided per round")
		deadline  = fs.Duration("deadline", 0, "default per-request decision deadline (0 = none)")
		events    = fs.String("events", "", "stream the event log to this file (JSONL; .bin = binary)")
		metrics   = fs.String("metrics", "", `write a final Prometheus snapshot at drain ("-" = stdout)`)
		doctor    = fs.Bool("doctor", false, "run live invariant monitors; non-zero exit on violation")
		grid      = fs.String("grid", "", "carbon grid profile: flat | diurnal | coal | profile.json (off when empty)")
		costName  = fs.String("cost", "default", "cost model: default | model.json (used with -grid)")
		flightDir = fs.String("flight", "", "flight-recorder dump directory (off when empty; SIGQUIT forces a dump)")
		flightSLO = fs.Duration("flight-slo", 0, "submit-to-reply bound whose first breach triggers a flight dump (0 = off)")
	)
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}

	plc, err := placement.Generate(placement.GenerateConfig{
		NumDisks: *disks, NumBlocks: *blocks,
		ReplicationFactor: *rf, ZipfExponent: *zipf, Seed: *seed,
	})
	if err != nil {
		return err
	}
	pc := power.DefaultConfig()
	cfg := serve.Config{
		System: storage.Config{
			NumDisks: *disks,
			Power:    pc,
			Mech:     diskmodel.Cheetah15K5(),
			Policy:   power.TwoCompetitive{Config: pc},
		},
		Router:      serve.NewRouter(plc, 0),
		Cost:        sched.CostConfig{Alpha: *alpha, Beta: *beta, Power: pc},
		MaxInFlight: *queue,
		RoundMax:    *roundMax,
		Deadline:    *deadline,
		FlightSLO:   *flightSLO,
	}
	switch *mode {
	case "heuristic":
		cfg.Mode = serve.ModeHeuristic
	case "wsc":
		cfg.Mode = serve.ModeWSC
	default:
		return usageError(fmt.Sprintf("unknown -mode %q", *mode))
	}

	// The daemon always owns a collector: /metrics serves it.
	col := obs.NewCollector()
	obsSet, err := runobs.Open("eschedd", runobs.Spec{Events: *events, Metrics: *metrics,
		Doctor: *doctor, Grid: *grid, Cost: *costName, FlightDir: *flightDir},
		cfg.System, plc.Locations, col)
	if err != nil {
		return err
	}
	rec := obsSet.Recorder
	cfg.Tracer, cfg.Collector, cfg.Monitor, cfg.Accounting, cfg.Flight =
		obsSet.Tracer, col, obsSet.Doctor, obsSet.Accounting, rec

	eng, err := serve.New(cfg)
	if err != nil {
		return obsSet.Close(err)
	}
	srv := serve.NewServer(eng, col)
	bound, shutdown, err := srv.Serve(*addr)
	if err != nil {
		return obsSet.Close(err)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			shutdown() // the failed write is the error to report
			return obsSet.Close(err)
		}
	}
	fmt.Fprintf(stderr, "eschedd: serving on %s (%d disks, %d blocks, rf=%d, mode=%s)\n",
		bound, *disks, *blocks, *rf, *mode)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	var quit chan os.Signal
	if rec != nil {
		// SIGQUIT freezes the flight recorder's window without draining.
		quit = make(chan os.Signal, 1)
		signal.Notify(quit, syscall.SIGQUIT)
	}
	var s os.Signal
wait:
	for {
		select {
		case s = <-sig:
			break wait
		case <-quit:
			fmt.Fprintln(stderr, "eschedd: SIGQUIT — flight dump requested")
			rec.RequestDump("sigquit")
			eng.FlushFlight()
		}
	}
	fmt.Fprintf(stderr, "eschedd: %v — draining\n", s)

	res, runErr := eng.Drain()
	if err := shutdown(); err != nil && runErr == nil {
		runErr = err
	}
	if res != nil {
		fmt.Fprintf(stdout, "decisions: %d\n", eng.Decisions())
		fmt.Fprintf(stdout, "energy: %.0f J (%.3f of always-on %.0f J) over %s\n",
			res.Energy, res.NormalizedEnergy(), res.AlwaysOnEnergy, res.Horizon.Round(time.Second))
		fmt.Fprintf(stdout, "spin operations: %d up / %d down\n", res.SpinUps, res.SpinDowns)
		fmt.Fprintf(stdout, "requests: %d served, %d dropped\n", res.Served, res.Dropped)
	}
	return obsSet.Close(runErr)
}

func runLoadgen(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("eschedd loadgen", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:8080", "daemon address")
		requests = fs.Int("requests", 10000, "number of requests to send")
		blocks   = fs.Int("blocks", 30000, "block space to draw from (match the daemon)")
		wl       = fs.String("workload", "cello", "arrival/popularity model: cello | financial | uniform")
		seed     = fs.Int64("seed", 1, "random seed")
		conns    = fs.Int("conns", 8, "concurrent connections (closed loop) / senders (open loop)")
		loop     = fs.String("loop", "closed", "closed (next request after response) | open (fixed rate)")
		rate     = fs.Float64("rate", 5000, "open-loop arrival rate, requests/sec")
		batch    = fs.Int("batch", 1, "requests per POST (>1 uses the compact batch endpoint)")
	)
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}
	if *batch < 1 {
		return usageError("-batch must be >= 1")
	}
	if *loop == "open" && *rate <= 0 {
		return usageError("-rate must be positive for the open loop")
	}

	// Draw the block sequence from the workload model so popularity skew
	// matches the trace-driven batch experiments.
	var seq []core.BlockID
	switch *wl {
	case "cello":
		seq = blockSeq(workload.CelloLike(*requests, *blocks, *seed))
	case "financial":
		seq = blockSeq(workload.FinancialLike(*requests, *blocks, *seed))
	case "uniform":
		rng := rand.New(rand.NewSource(*seed))
		seq = make([]core.BlockID, *requests)
		for i := range seq {
			seq[i] = core.BlockID(rng.Intn(*blocks))
		}
	default:
		return usageError(fmt.Sprintf("unknown -workload %q", *wl))
	}

	base := "http://" + *addr
	client := &http.Client{Timeout: 30 * time.Second}
	if err := checkHealth(client, base); err != nil {
		return err
	}
	startState, err := getState(client, base)
	if err != nil {
		return err
	}

	// lat is the SLO latency series. In the open loop it is measured from
	// each request's *intended* send time on the fixed-rate schedule, not
	// from the actual POST — the coordinated-omission correction: a stalled
	// client would otherwise stop sampling exactly while the daemon is slow
	// and underreport the tail. service keeps the uncorrected POST-to-reply
	// times so the report can show the correction's size.
	lat := make([]time.Duration, 0, len(seq))
	service := make([]time.Duration, 0, len(seq))
	var mu sync.Mutex
	var sent, rejected, failed int64
	record := func(corrected, svc time.Duration, n, rej int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			failed++
			return
		}
		sent += int64(n)
		rejected += int64(rej)
		for i := 0; i < n; i++ {
			lat = append(lat, corrected)
			service = append(service, svc)
		}
	}

	open := *loop == "open"
	start := time.Now()
	if open {
		openLoop(client, base, seq, *conns, *rate, *batch, record)
	} else {
		closedLoop(client, base, seq, *conns, *batch, record)
	}
	wall := time.Since(start)

	endState, err := getState(client, base)
	if err != nil {
		return err
	}
	return report(stdout, lat, service, open, *batch, wall, sent, rejected, failed, startState, endState)
}

// blockSeq strips a generated trace down to its block sequence.
func blockSeq(rs []core.Request) []core.BlockID {
	out := make([]core.BlockID, len(rs))
	for i, r := range rs {
		out[i] = r.Block
	}
	return out
}

func closedLoop(client *http.Client, base string, reqs []core.BlockID, conns, batch int,
	record func(corrected, service time.Duration, n, rej int, err error)) {
	var next int64
	var mu sync.Mutex
	take := func() []core.BlockID {
		mu.Lock()
		defer mu.Unlock()
		if next >= int64(len(reqs)) {
			return nil
		}
		end := next + int64(batch)
		if end > int64(len(reqs)) {
			end = int64(len(reqs))
		}
		out := reqs[next:end]
		next = end
		return out
	}
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				chunk := take()
				if chunk == nil {
					return
				}
				// Closed loop: the next request waits for this response, so
				// intended and actual send coincide — no correction to apply.
				d, n, rej, err := post(client, base, chunk)
				record(d, d, n, rej, err)
			}
		}()
	}
	wg.Wait()
}

func openLoop(client *http.Client, base string, reqs []core.BlockID, conns int, rate float64, batch int,
	record func(corrected, service time.Duration, n, rej int, err error)) {
	interval := time.Duration(float64(time.Second) * float64(batch) / rate)
	if interval <= 0 {
		interval = time.Microsecond
	}
	sem := make(chan struct{}, conns)
	var wg sync.WaitGroup
	tick := time.NewTicker(interval)
	defer tick.Stop()
	start := time.Now()
	for next, k := 0, 0; next < len(reqs); k++ {
		<-tick.C
		// The k-th chunk belongs at start + k·interval on the fixed-rate
		// schedule. Latency is measured against that intended send time, so
		// ticker lag and sender stalls show up as latency instead of being
		// silently omitted from the sample (coordinated omission).
		intended := start.Add(time.Duration(k) * interval)
		end := next + batch
		if end > len(reqs) {
			end = len(reqs)
		}
		chunk := reqs[next:end]
		next = end
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				d, n, rej, err := post(client, base, chunk)
				record(time.Since(intended), d, n, rej, err)
				<-sem
			}()
		default:
			// Open loop: the system can't keep up — count as rejected
			// rather than queue unboundedly at the client.
			record(0, 0, 0, len(chunk), nil)
		}
	}
	wg.Wait()
}

// post sends one chunk (single JSON request or compact batch) and returns
// the per-request latency, how many were decided and how many rejected.
func post(client *http.Client, base string, chunk []core.BlockID) (time.Duration, int, int, error) {
	t0 := time.Now()
	if len(chunk) == 1 {
		body := fmt.Sprintf(`{"block": %d}`, chunk[0])
		resp, err := client.Post(base+"/v1/schedule", "application/json", strings.NewReader(body))
		if err != nil {
			return 0, 0, 0, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return time.Since(t0), 1, 0, nil
		}
		return time.Since(t0), 0, 1, nil
	}
	var sb strings.Builder
	for _, b := range chunk {
		fmt.Fprintf(&sb, "%d\n", b)
	}
	resp, err := client.Post(base+"/v1/schedule/batch", "text/plain", strings.NewReader(sb.String()))
	if err != nil {
		return 0, 0, 0, err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return time.Since(t0), 0, len(chunk), nil
	}
	ok, rej := 0, 0
	for _, ln := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if strings.HasPrefix(ln, "!") {
			rej++
		} else if ln != "" {
			ok++
		}
	}
	return time.Since(t0), ok, rej, nil
}

func checkHealth(client *http.Client, base string) error {
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return fmt.Errorf("daemon not reachable: %w", err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("daemon not healthy: /healthz = %d", resp.StatusCode)
	}
	return nil
}

// stateSnap is the subset of /state the loadgen reports on.
type stateSnap struct {
	Decisions uint64           `json:"decisions"`
	Served    int              `json:"served"`
	Dropped   int              `json:"dropped"`
	EnergyJ   float64          `json:"energy_j"`
	SpinUps   int              `json:"spin_ups"`
	NowUS     int64            `json:"now_us"`
	CarbonG   float64          `json:"carbon_gco2e"`
	CostUSD   float64          `json:"cost_usd"`
	Slow      []serve.SlowSpan `json:"slow_requests"`
}

func getState(client *http.Client, base string) (stateSnap, error) {
	var st stateSnap
	resp, err := client.Get(base + "/state")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/state = %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// report prints the latency/energy SLO report. lat carries the SLO series
// (intended-send basis in the open loop); service the uncorrected
// POST-to-reply times, reported as a correction delta when they diverge.
func report(w io.Writer, lat, service []time.Duration, open bool, batch int, wall time.Duration,
	sent, rejected, failed int64, start, end stateSnap) error {
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	sort.Slice(service, func(i, j int) bool { return service[i] < service[j] })
	pctOf := func(sl []time.Duration, p float64) time.Duration {
		if len(sl) == 0 {
			return 0
		}
		i := int(p / 100 * float64(len(sl)-1))
		return sl[i]
	}
	pct := func(p float64) time.Duration { return pctOf(lat, p) }
	decided := end.Decisions - start.Decisions
	energy := end.EnergyJ - start.EnergyJ
	fmt.Fprintf(w, "loadgen: %d decided, %d rejected, %d failed in %s (%.0f decisions/sec)\n",
		sent, rejected, failed, wall.Round(time.Millisecond), float64(sent)/wall.Seconds())
	fmt.Fprintf(w, "latency: p50 %s  p99 %s  p99.9 %s  max %s\n",
		pct(50).Round(time.Microsecond), pct(99).Round(time.Microsecond),
		pct(99.9).Round(time.Microsecond), pct(100).Round(time.Microsecond))
	if batch > 1 {
		// Batched POSTs amortize one round trip over the whole chunk; the
		// per-request share is what a single decision effectively cost.
		amort := func(p float64) time.Duration { return pct(p) / time.Duration(batch) }
		fmt.Fprintf(w, "amortized per request (batch %d): p50 %s  p99 %s  max %s\n",
			batch, amort(50).Round(time.Microsecond), amort(99).Round(time.Microsecond),
			amort(100).Round(time.Microsecond))
	}
	if open {
		// Show how much the coordinated-omission correction moved the tail:
		// the service series is what a naive send-to-reply measurement would
		// have reported.
		mp99, cp99 := pctOf(service, 99), pct(99)
		fmt.Fprintf(w, "coordinated omission: uncorrected p99 %s, corrected p99 %s (delta %s)\n",
			mp99.Round(time.Microsecond), cp99.Round(time.Microsecond),
			(cp99 - mp99).Round(time.Microsecond))
	}
	for i, s := range end.Slow {
		if i == 3 {
			break
		}
		fmt.Fprintf(w, "slow exemplar: req %d block %d disk %d decision %d — total %s (queue %s, decide %s, dispatch %s)\n",
			s.Req, s.Block, s.Disk, s.Decision,
			time.Duration(s.TotalUS)*time.Microsecond,
			time.Duration(s.QueueUS)*time.Microsecond,
			time.Duration(s.DecideUS)*time.Microsecond,
			time.Duration(s.DispatchUS)*time.Microsecond)
	}
	if decided > 0 {
		fmt.Fprintf(w, "energy: %.1f J settled across the run window, %.3f J per 1k requests (daemon decisions %d)\n",
			energy, energy/float64(decided)*1000, decided)
	}
	if end.CarbonG > 0 || end.CostUSD > 0 {
		// The daemon runs with -grid: report the settled carbon/cost delta
		// over the load window alongside the energy SLO.
		carbon := end.CarbonG - start.CarbonG
		cost := end.CostUSD - start.CostUSD
		perK := 0.0
		if decided > 0 {
			perK = carbon / float64(decided) * 1000
		}
		fmt.Fprintf(w, "carbon: %.6g gCO2e settled across the run window (%.6g gCO2e/1k requests)\n",
			carbon, perK)
		fmt.Fprintf(w, "cost: %.6g USD settled across the run window\n", cost)
	}
	fmt.Fprintf(w, "daemon: served %d, dropped %d, spin-ups %d, virtual time %s\n",
		end.Served, end.Dropped, end.SpinUps,
		(time.Duration(end.NowUS) * time.Microsecond).Round(time.Millisecond))
	if failed > 0 {
		return fmt.Errorf("loadgen: %d requests failed at transport level", failed)
	}
	return nil
}

func runProbe(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("eschedd probe", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "daemon address")
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}
	base := "http://" + *addr
	client := &http.Client{Timeout: 10 * time.Second}
	if err := checkHealth(client, base); err != nil {
		return err
	}
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/metrics = %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "esched_") {
		return fmt.Errorf("/metrics exposes no esched_ series")
	}
	st, err := getState(client, base)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "ok: healthz healthy, %d metric bytes, %d decisions, %.1f J settled\n",
		len(body), st.Decisions, st.EnergyJ)
	return nil
}
