#!/bin/sh
# replaygate.sh — log-replay and runtime-invariant gate (part of `make ci`).
#
# Records one seeded SmallScale-sized cell through the observability layer
# (esched -doctor -events -metrics, so the live doctor tee runs too), then
# requires the trace analytics engine to reconstruct the run from the log
# alone:
#
#   tracelens verify     the replayed collector must render a metrics
#                        export byte-identical to the one the live run
#                        wrote — every counter, histogram bucket and
#                        energy total, down to the float formatting;
#   tracelens attribute  the energy waterfall must account for 100 % of
#                        the measured joules bit-exactly against the
#                        power.Meter by-state totals in the export;
#   tracelens doctor     zero invariant violations in the log:
#                        power-state-machine legality, bit-exact energy
#                        conservation, request conservation, replica
#                        validity, 2CPM threshold compliance and latency
#                        sanity.
#
# The gate records the cell once per encoding, streaming JSONL and the
# dense binary encoding, so a codec change that breaks either path fails
# CI. Non-zero exit (from set -e) on any mismatch or violation, live or
# replayed.
#
# Usage: scripts/replaygate.sh
#   REPLAY_DISKS / REPLAY_REQUESTS / REPLAY_BLOCKS / REPLAY_SEED
#   override the cell size (defaults: 24 disks, 6000 requests, 2500
#   blocks, seed 7 — the SmallScale shape, a couple of seconds total).

set -eu

cd "$(dirname "$0")/.."

disks="${REPLAY_DISKS:-24}"
requests="${REPLAY_REQUESTS:-6000}"
blocks="${REPLAY_BLOCKS:-2500}"
seed="${REPLAY_SEED:-7}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/esched" ./cmd/esched
go build -o "$tmp/tracelens" ./cmd/tracelens

for enc in jsonl bin; do
	case "$enc" in
	jsonl) log="$tmp/run.events" ;;
	bin) log="$tmp/run.bin" ;;
	esac
	echo "replaygate: recording $enc cell with live -doctor (disks=$disks requests=$requests blocks=$blocks seed=$seed)..." >&2
	"$tmp/esched" -disks "$disks" -requests "$requests" -blocks "$blocks" \
		-rf 3 -seed "$seed" -scheduler heuristic -doctor \
		-events "$log" -metrics "$tmp/run.$enc.prom" >/dev/null 2>"$tmp/live.$enc.report" ||
		{ cat "$tmp/live.$enc.report" >&2; exit 1; }

	echo "replaygate: tracelens verify ($enc)..." >&2
	"$tmp/tracelens" verify -metrics "$tmp/run.$enc.prom" "$log"

	echo "replaygate: tracelens attribute ($enc)..." >&2
	"$tmp/tracelens" attribute -metrics "$tmp/run.$enc.prom" "$log" >/dev/null

	echo "replaygate: tracelens doctor ($enc)..." >&2
	"$tmp/tracelens" doctor -disks "$disks" -blocks "$blocks" \
		-rf 3 -z 1 -seed "$seed" "$log" >&2
done

echo "replaygate: OK — both encodings replay to byte-identical exports and are doctor-clean" >&2
