# Energy-aware disk scheduling reproduction — common tasks.

GO ?= go

.PHONY: all build test vet check race-hot ci bench bench-test bench-all replay-gate doctor-gate serve-gate carbon-gate flight-gate doc-check fuzz figures figures-full summary examples cover clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Full pre-merge gate: vet plus the race detector over every package.
# The parallel MWIS solve, sharded graph build, and the sim-kernel event
# plumbing all run under -race here.
check: vet
	$(GO) test -race ./...

# CI gate: build, vet, the tests (once plain, so the exact allocation pins
# in alloc_test.go run, and once race-detected), the benchmark's own tests
# (bench/ is a separate module that `go test ./...` does not reach), the
# log-replay consistency gate (a seeded cell's event log must replay to a
# byte-identical metrics export and a bit-exact energy attribution), the
# doctor gate (runtime invariants over both log encodings plus the
# paper-fidelity scorecard), the serving gate (a live eschedd run under
# load must drain clean and doctor-clean), the carbon gate (live
# gCO2e/$ totals byte-identical to their tracelens replay under flat,
# diurnal and custom JSON grids, batch and serving paths), the flight
# gate (an SLO breach on a live eschedd run must freeze a replayable
# flight dump that decodes with tracelens last/shards and replays
# doctor-clean), and the documentation gate (vet + package doc comments
# everywhere).
ci: build test check race-hot bench-test replay-gate doctor-gate serve-gate carbon-gate flight-gate doc-check

# Focused race pass over the packages with deliberate concurrency around
# shared state: the sweep cache's single-flight map in internal/experiments
# and the power-aware block cache. `check` already races everything; this
# target re-runs the two at higher -count to shake out rare interleavings,
# then drives the sharded kernel's determinism suite — byte-identical
# traces, state logs and figure output across shard counts, the
# calendar-queue/heap equivalence property, and a small multi-shard fleet
# sweep — under -race, where a missed epoch barrier shows up as a data
# race and a missed event shows up as a byte diff — and finally the serving
# engine's Sequential-mode sequencer under many concurrent submitters,
# where a lost release strands requests and hangs the test.
race-hot:
	$(GO) test -race -count 4 ./internal/experiments ./internal/cache
	$(GO) test -race -count 2 -run 'TestSharded|TestCalendar|TestFreeRun|TestShardOf|TestShardsValidate|TestFleet' ./internal/simkernel ./internal/storage
	$(GO) test -race -count 1 -run 'TestFigureOutputShardInvariant|TestScaleValidateShards' ./internal/experiments
	$(GO) test -race -count 4 -run 'TestShardedSequential|TestSequential' ./internal/serve

# The benchmark's own tests: its statistics, golden files and checks.
# -parallel 1 gives each workload test the CPUs to itself: the traced fleet
# run's coverage check measures the workers' share of wall time, and on a
# 2-CPU machine the other workloads' tests running beside it starve them.
bench-test:
	$(GO) -C bench test -parallel 1 ./...

# Log-replay consistency gate: record a seeded cell with esched
# -events/-metrics in both encodings, then `tracelens verify` and
# `tracelens attribute` must reproduce the export exactly (see
# scripts/replaygate.sh and docs/OBSERVABILITY.md).
replay-gate:
	scripts/replaygate.sh

# Runtime-invariant + paper-fidelity gate: `tracelens doctor` must find
# zero invariant violations in a seeded cell's log in both encodings, and
# `tracelens doctor fidelity` must score the regenerated seeded sweep
# inside the committed golden envelope (see scripts/doctorgate.sh and
# docs/OBSERVABILITY.md).
doctor-gate:
	scripts/doctorgate.sh

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

# Short fuzz pass over the trace parsers, the event-log reader and the
# flight-snapshot reader.
fuzz:
	$(GO) test ./internal/trace -fuzz FuzzReadSPC -fuzztime 10s
	$(GO) test ./internal/trace -fuzz FuzzReadCelloText -fuzztime 10s
	$(GO) test ./internal/obs -fuzz FuzzReadJSONL -fuzztime 10s
	$(GO) test ./internal/obs -fuzz FuzzReadBinary -fuzztime 10s
	$(GO) test ./internal/obs/flight -fuzz FuzzReadSnapshot -fuzztime 10s

# Fast (small-scale) regeneration of every paper figure.
figures:
	$(GO) run ./cmd/figures -out results

# The paper's full 180-disk / 70k-request setup, including the extension
# experiments (takes a few minutes).
figures-full:
	$(GO) run ./cmd/figures -scale full -ext -out results

summary:
	$(GO) run ./cmd/figures -scale full -ext -fig none -summary results/summary.md

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/offline-optimal
	$(GO) run ./examples/tradeoff
	$(GO) run ./examples/realtrace
	$(GO) run ./examples/fullstack
	$(GO) run ./examples/failures

cover:
	$(GO) test -coverprofile=cover.out ./... && $(GO) tool cover -func=cover.out | tail -1

clean:
	rm -f cover.out test_output.txt bench_output.txt
