#!/bin/sh
# servegate.sh — serving-path gate (part of `make ci`).
#
# Boots a real eschedd daemon with the event tracer and live doctor
# monitors attached, drives it with a short loadgen burst (compact batch
# endpoint), probes /healthz and /metrics, drains it with SIGTERM, and then
# replays the emitted event log offline through `tracelens doctor` — the
# same invariant suite the batch path is held to: power-state legality,
# bit-exact energy conservation, request conservation, replica validity,
# 2CPM threshold compliance and latency sanity. Non-zero exit (set -e) on
# any probe failure, loadgen transport failure, daemon drain error (the
# daemon itself exits non-zero on a live doctor violation), or offline
# doctor violation.
#
# The loadgen drives 8 connections of 16-block batches, so many batches
# contend for the engine lock at once, each decided in rounds of its own
# blocks: the gate exercises admission and the decision lock under
# concurrency, and the offline doctor proves the log those rounds wrote
# still satisfies every invariant.
#
# Usage: scripts/servegate.sh
#   SERVE_DISKS / SERVE_BLOCKS / SERVE_REQUESTS / SERVE_SEED override the
#   gate's shape (defaults: 32 disks, 2000 blocks, 5000 requests, seed 7).

set -eu

cd "$(dirname "$0")/.."

disks="${SERVE_DISKS:-32}"
blocks="${SERVE_BLOCKS:-2000}"
requests="${SERVE_REQUESTS:-5000}"
seed="${SERVE_SEED:-7}"

gate=servegate
tmp="$(mktemp -d)"
. scripts/daemon.sh
trap cleanup EXIT

go build -o "$tmp/eschedd" ./cmd/eschedd
go build -o "$tmp/tracelens" ./cmd/tracelens

echo "servegate: booting eschedd (disks=$disks blocks=$blocks seed=$seed, -events -doctor)..." >&2
boot_daemon -disks "$disks" -blocks "$blocks" -rf 3 -z 1 -seed "$seed" \
	-events "$tmp/run.jsonl" -metrics "$tmp/metrics.txt" -doctor

echo "servegate: loadgen burst ($requests requests against $addr)..." >&2
"$tmp/eschedd" loadgen -addr "$addr" -requests "$requests" \
	-blocks "$blocks" -seed "$seed" -conns 8 -batch 16 >&2

echo "servegate: probing /healthz and /metrics..." >&2
"$tmp/eschedd" probe -addr "$addr" >&2

echo "servegate: draining daemon (SIGTERM)..." >&2
drain_daemon
cat "$tmp/daemon.out" >&2

echo "servegate: tracelens doctor over the serving log..." >&2
"$tmp/tracelens" doctor -disks "$disks" -blocks "$blocks" \
	-rf 3 -z 1 -seed "$seed" "$tmp/run.jsonl" >&2

echo "servegate: OK — live run healthy, drained clean, log doctor-clean" >&2
