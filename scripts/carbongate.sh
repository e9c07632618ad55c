#!/bin/sh
# carbongate.sh — carbon/cost reconciliation gate (part of `make ci`).
#
# Records one seeded SmallScale-sized cell through the accounting layer
# (esched -grid -events -metrics), then requires the replay path to
# reproduce the live pricing exactly:
#
#   carbon:/cost: lines   the gCO2e and dollar totals the live run prints
#                         must be byte-identical to the ones `tracelens
#                         carbon` recomputes from the event log alone;
#   tracelens carbon -metrics
#                         the exported esched_carbon_gco2e_total /
#                         esched_cost_usd_total /
#                         esched_carbon_intensity_gco2e_kwh series must
#                         match the replayed report bit-exactly, down to
#                         the float formatting.
#
# The cell runs under three grid profiles — flat (one window), diurnal
# (the 24 h duck curve) and a custom short-period JSON profile that forces
# many windows across the run — and the diurnal leg repeats on the binary
# log encoding, so a codec or windowing change that breaks either path
# fails CI. A fourth leg boots a real eschedd daemon with -grid, drives a
# loadgen burst, drains it, and holds the serving path to the same
# byte-identity. (`tracelens verify` is NOT run on -grid exports: the
# replayed collector rebuilds only the run catalog, not the carbon
# families — `tracelens carbon -metrics` is the reconciliation check
# here.) Non-zero exit (set -eu + explicit diffs) on any mismatch.
#
# Usage: scripts/carbongate.sh
#   CARBON_DISKS / CARBON_REQUESTS / CARBON_BLOCKS / CARBON_SEED override
#   the cell size (defaults: 24 disks, 6000 requests, 2500 blocks, seed 7
#   — the replaygate shape, a couple of seconds total).

set -eu

cd "$(dirname "$0")/.."

disks="${CARBON_DISKS:-24}"
requests="${CARBON_REQUESTS:-6000}"
blocks="${CARBON_BLOCKS:-2500}"
seed="${CARBON_SEED:-7}"

gate=carbongate
tmp="$(mktemp -d)"
. scripts/daemon.sh
trap cleanup EXIT

go build -o "$tmp/esched" ./cmd/esched
go build -o "$tmp/tracelens" ./cmd/tracelens
go build -o "$tmp/eschedd" ./cmd/eschedd

# A 90-second-period profile: the ~5-minute cell crosses many boundaries,
# exercising the windowed integrator rather than a single flat window.
cat >"$tmp/cycle.json" <<'EOF'
{
  "name": "gate-cycle",
  "period_s": 90,
  "steps": [
    {"start_s": 0,  "gco2e_per_kwh": 480},
    {"start_s": 30, "gco2e_per_kwh": 90},
    {"start_s": 60, "gco2e_per_kwh": 610}
  ]
}
EOF

# check_batch GRID LOG: run the cell live under GRID, then require the
# replayed carbon:/cost: lines and the exported metric series to match.
check_batch() {
	g="$1"
	log="$2"
	prom="$log.prom"
	echo "carbongate: recording cell under grid $g ($(basename "$log"))..." >&2
	"$tmp/esched" -disks "$disks" -requests "$requests" -blocks "$blocks" \
		-rf 3 -seed "$seed" -scheduler heuristic -grid "$g" \
		-events "$log" -metrics "$prom" >"$tmp/live.out"
	grep -E '^(carbon|cost):' "$tmp/live.out" >"$tmp/live.lines"

	echo "carbongate: tracelens carbon replay + metrics reconcile ($g)..." >&2
	"$tmp/tracelens" carbon -grid "$g" -metrics "$prom" "$log" >"$tmp/replay.out"
	grep -E '^(carbon|cost):' "$tmp/replay.out" >"$tmp/replay.lines"

	if ! diff -u "$tmp/live.lines" "$tmp/replay.lines" >&2; then
		echo "carbongate: FAIL — live and replayed carbon/cost lines differ (grid $g)" >&2
		exit 1
	fi
	grep -q 'matches .* bit-exactly (4/4 series)' "$tmp/replay.out" || {
		echo "carbongate: FAIL — metrics reconciliation line missing (grid $g)" >&2
		cat "$tmp/replay.out" >&2
		exit 1
	}
}

check_batch flat "$tmp/flat.events"
check_batch diurnal "$tmp/diurnal.events"
check_batch diurnal "$tmp/diurnal.bin"
check_batch "$tmp/cycle.json" "$tmp/cycle.events"

# Serving leg: the eschedd drain summary must be byte-identical to a
# replay of the serving log.
echo "carbongate: booting eschedd with -grid diurnal..." >&2
boot_daemon -disks "$disks" -blocks "$blocks" -rf 3 -z 1 -seed "$seed" \
	-grid diurnal -events "$tmp/serve.jsonl" -metrics "$tmp/serve.prom"
"$tmp/eschedd" loadgen -addr "$addr" -requests 3000 \
	-blocks "$blocks" -seed "$seed" -conns 4 -batch 16 >&2
drain_daemon
grep -E '^(carbon|cost):' "$tmp/daemon.out" >"$tmp/serve.lines"
"$tmp/tracelens" carbon -grid diurnal -metrics "$tmp/serve.prom" \
	"$tmp/serve.jsonl" >"$tmp/serve.replay"
grep -E '^(carbon|cost):' "$tmp/serve.replay" >"$tmp/serve.replay.lines"
if ! diff -u "$tmp/serve.lines" "$tmp/serve.replay.lines" >&2; then
	echo "carbongate: FAIL — eschedd drain and replayed carbon/cost lines differ" >&2
	exit 1
fi
grep -q 'matches .* bit-exactly (4/4 series)' "$tmp/serve.replay" || {
	echo "carbongate: FAIL — serving metrics reconciliation line missing" >&2
	cat "$tmp/serve.replay" >&2
	exit 1
}

echo "carbongate: OK — live and replayed gCO2e/\$ byte-identical under flat, diurnal, custom JSON and the serving path" >&2
