#!/bin/sh
# flightgate.sh — flight-recorder gate (part of `make ci`).
#
# Boots a real eschedd daemon with the always-on flight recorder armed and a
# deliberately unmeetable -flight-slo, drives a short loadgen burst so the
# first decided request breaches the SLO and freezes the recorder's window,
# drains the daemon, and then holds the dump to the replayability contract:
# `tracelens last` must decode the dump (trigger, window bounds, embedded
# kernel telemetry), `tracelens shards` must render the telemetry snapshot,
# and `tracelens doctor` must replay the dumped events.bin — a standard
# ESCHOBS2 log — with zero invariant violations (the window is a clean run
# prefix; the breach was an SLO event, not a correctness one). Non-zero exit
# (set -e) on a missing dump, an undecodable artifact, or a doctor
# violation in the replay.
#
# Usage: scripts/flightgate.sh
#   FLIGHT_DISKS / FLIGHT_BLOCKS / FLIGHT_REQUESTS / FLIGHT_SEED override
#   the gate's shape (defaults: 24 disks, 1500 blocks, 800 requests, seed 7).

set -eu

cd "$(dirname "$0")/.."

disks="${FLIGHT_DISKS:-24}"
blocks="${FLIGHT_BLOCKS:-1500}"
requests="${FLIGHT_REQUESTS:-800}"
seed="${FLIGHT_SEED:-7}"

gate=flightgate
tmp="$(mktemp -d)"
. scripts/daemon.sh
trap cleanup EXIT

go build -o "$tmp/eschedd" ./cmd/eschedd
go build -o "$tmp/tracelens" ./cmd/tracelens

echo "flightgate: booting eschedd (-flight, -flight-slo 1ns)..." >&2
boot_daemon -disks "$disks" -blocks "$blocks" -rf 3 -z 1 -seed "$seed" \
	-flight "$tmp/flight" -flight-slo 1ns

echo "flightgate: loadgen burst ($requests requests against $addr)..." >&2
"$tmp/eschedd" loadgen -addr "$addr" -requests "$requests" \
	-blocks "$blocks" -seed "$seed" -conns 4 -batch 8 >&2

echo "flightgate: draining daemon (SIGTERM)..." >&2
drain_daemon
grep "flight recorder wrote" "$tmp/daemon.err" >&2

dump="$(ls -d "$tmp"/flight/flight-* | sort | tail -1)"
if [ -z "$dump" ]; then
	echo "flightgate: no flight dump written" >&2
	exit 1
fi

echo "flightgate: tracelens last over $dump..." >&2
"$tmp/tracelens" last "$tmp/flight" >"$tmp/last.out"
cat "$tmp/last.out" >&2
grep -q "trigger       slo breach" "$tmp/last.out"
grep -q "kernel telemetry:" "$tmp/last.out"

echo "flightgate: tracelens shards over the dump telemetry..." >&2
"$tmp/tracelens" shards "$dump/telemetry.json" >&2

echo "flightgate: tracelens doctor replay of the dumped window..." >&2
"$tmp/tracelens" doctor -disks "$disks" -blocks "$blocks" \
	-rf 3 -z 1 -seed "$seed" "$dump/events.bin" >&2

echo "flightgate: OK — SLO breach dumped, window decodes, replay doctor-clean" >&2
