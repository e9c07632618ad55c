# Energy-aware disk scheduling reproduction — common tasks.

GO ?= go

.PHONY: all build test vet check race-hot ci bench bench-test bench-all replay-gate serve-gate carbon-gate flight-gate doc-check fuzz figures figures-full summary cover clean

all: build vet test

build:
	$(GO) build ./...
	$(GO) -C bench build -o /dev/null ./...

# go vet, then gofmt: any file gofmt would rewrite fails the target, and
# with it all, check and ci.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt would rewrite:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

# Full pre-merge gate: vet plus the race detector over every package.
# The disk-sharded node scan of the MWIS reduction, the component-parallel
# GWMIN the benchmark's replay uses, and the sim-kernel event plumbing all
# run under -race here.
check: vet
	$(GO) test -race ./...

# CI gate: build, vet, the tests (once plain, so the exact allocation pins
# in alloc_test.go run and TestPaperClaims checks the paper-claims table on
# doctored full-scale sweeps — both skip under -race — and once
# race-detected), the benchmark's own tests (bench/ is a separate module
# that `go test ./...` does not reach), the log-replay consistency gate (a
# seeded cell's event log must replay to a byte-identical metrics export
# and a bit-exact energy attribution, and be doctor-clean in both log
# encodings), the serving gate (a live eschedd run under load must drain
# clean and doctor-clean), the carbon gate (live
# gCO2e/$ totals byte-identical to their tracelens replay under flat,
# diurnal and custom JSON grids, batch and serving paths), the flight
# gate (an SLO breach on a live eschedd run must freeze a replayable
# flight dump that decodes with tracelens last/shards and replays
# doctor-clean), and the documentation gate (vet + package doc comments
# everywhere).
ci: build test check race-hot bench-test replay-gate serve-gate carbon-gate flight-gate doc-check

# Focused race pass over the packages with deliberate concurrency around
# shared state: the sweep cache's single-flight map in internal/experiments
# and the power-aware block cache. `check` already races everything; this
# target re-runs the two at higher -count to shake out rare interleavings,
# then drives the event kernel's suite — per-disk logs and fleet results
# identical to the one-shard run at every shard and worker count, the
# calendar queue and the whole Engine (slot, preload runs, cancellation,
# RunFree drains) checked against a binary-heap oracle, and a small
# multi-shard fleet sweep — under -race, where shards touching each
# other's state show up as a data race and a missed event shows up as a
# diff — and finally the serving engine's admission and decision lock:
# the Sequential-mode turn order under many concurrent submitters (a
# missed wake-up leaves a submitter waiting and hangs the test), the
# serving-equals-simulation pin (TestSequentialMatchesRunOnline: four
# concurrent Sequential submitters must reproduce storage.RunOnline's
# event log, state log, result and metrics export), live mode under
# concurrent submitters with the doctor attached, drains racing
# submitters and idle engines (TestDrainWithoutRequests among them), and
# batch POSTs decided in rounds of their own blocks, concurrently and
# through HTTP (TestWSCRoundsServeAll, TestBatchRounds, TestHTTPBatch).
race-hot:
	$(GO) test -race -count 4 ./internal/experiments ./internal/cache
	$(GO) test -race -count 2 -run 'TestSharded|TestCalendar|TestEngineMatchesHeapOracle|TestFreeRun|TestShardOf|TestFleet' ./internal/simkernel ./internal/storage
	$(GO) test -race -count 4 -run 'TestSequential|TestLiveDoctorClean|TestDrain|TestWSCRounds|TestBatchRounds|TestHTTPBatch' ./internal/serve

# The benchmark's own tests: its statistics, golden files and checks.
# -parallel 1 gives each workload test the CPUs to itself: the traced fleet
# run's coverage check measures the workers' share of wall time, and on a
# 2-CPU machine the other workloads' tests running beside it starve them.
bench-test:
	$(GO) -C bench test -parallel 1 ./...

# Log-replay and runtime-invariant gate: record a seeded cell once per
# encoding with esched -doctor -events -metrics, then `tracelens verify`
# and `tracelens attribute` must reproduce the export exactly and
# `tracelens doctor` must find zero invariant violations in the log (see
# scripts/replaygate.sh and docs/OBSERVABILITY.md).
replay-gate:
	scripts/replaygate.sh

# Serving-path gate: boot a real eschedd daemon with -events and live
# -doctor, drive a loadgen burst, probe /healthz and /metrics, drain with
# SIGTERM, then run `tracelens doctor` over the emitted serving log (see
# scripts/servegate.sh and docs/SERVING.md).
serve-gate:
	scripts/servegate.sh

# Carbon/cost reconciliation gate: a seeded cell's live carbon:/cost:
# lines must be byte-identical to `tracelens carbon` replayed from its
# event log under flat, diurnal and a custom short-period JSON grid (and
# on the binary encoding), the exported carbon/cost metric families must
# reconcile bit-exactly, and a drained eschedd run is held to the same
# identity (see scripts/carbongate.sh and docs/OBSERVABILITY.md).
carbon-gate:
	scripts/carbongate.sh

# Flight-recorder gate: an eschedd run with the recorder armed and a
# 1ns -flight-slo must dump on the first decision, and the dump must
# decode (tracelens last/shards) and replay doctor-clean (see
# scripts/flightgate.sh and docs/OBSERVABILITY.md).
flight-gate:
	scripts/flightgate.sh

# Documentation gate: go vet plus a package-doc-comment presence check
# over every package (see scripts/doccheck.sh).
doc-check:
	scripts/doccheck.sh

# The benchmark: every workload end to end, once (see bench/README.md for
# -runs, -compare, -ladder and -trace).
bench:
	sh bench/run.sh

# Every benchmark in every package (component and ablation benches too).
bench-all:
	$(GO) test -bench=. -benchmem ./...

# Short fuzz pass over the trace parsers, the event-log reader, the
# flight-snapshot reader, eschedd's two HTTP schedule decoders, the MWIS
# reduction (its conflict edges and residual degrees, checked against a
# brute-force oracle, its range greedy, checked against graph.GWMIN on the
# built graph, and its vertex order, checked against a comparison sort),
# the local search, whose dirty-request passes must make the moves of a
# search that evaluates every request every pass, the greedy selection
# loop, whose sorted front and re-key heap must select what a lazy binary
# heap selects on tie-heavy random graphs, and the Zipf sampler, whose
# guide-table window must return the rank a search over the whole CDF
# returns.
fuzz:
	$(GO) test ./internal/trace -fuzz FuzzReadSPC -fuzztime 10s
	$(GO) test ./internal/trace -fuzz FuzzReadCelloText -fuzztime 10s
	$(GO) test ./internal/obs -fuzz FuzzReadJSONL -fuzztime 10s
	$(GO) test ./internal/obs -fuzz FuzzReadBinary -fuzztime 10s
	$(GO) test ./internal/obs/flight -fuzz FuzzReadSnapshot -fuzztime 10s
	$(GO) test ./internal/serve -fuzz FuzzScheduleJSON -fuzztime 10s
	$(GO) test ./internal/serve -fuzz FuzzScheduleBatch -fuzztime 10s
	$(GO) test ./internal/offline -fuzz FuzzBuildEdges -fuzztime 10s
	$(GO) test ./internal/offline -fuzz FuzzImprove -fuzztime 10s
	$(GO) test ./internal/graph -fuzz FuzzSelectGreedy -fuzztime 10s
	$(GO) test ./internal/placement -fuzz FuzzZipfSample -fuzztime 10s

# Regenerates every paper figure (fig2-fig17) into results/ at the paper's
# full 180-disk / 70k-request scale, the scale results/ holds (~7 s on 2
# CPUs).
figures:
	$(GO) run ./cmd/figures -scale full -out results

# The same, plus the extension experiments' fig-ext*.txt (~17 s on 2 CPUs).
figures-full:
	$(GO) run ./cmd/figures -scale full -ext -out results

# The Markdown summary. It carries no timestamp, so two runs are
# byte-identical.
summary:
	$(GO) run ./cmd/figures -scale full -ext -fig none -summary results/summary.md

cover:
	$(GO) test -coverprofile=cover.out ./... && $(GO) tool cover -func=cover.out | tail -1

clean:
	rm -f cover.out test_output.txt bench_output.txt
