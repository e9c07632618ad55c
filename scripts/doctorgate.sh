#!/bin/sh
# doctorgate.sh — paper-fidelity gate (part of `make ci`).
#
# `tracelens doctor fidelity` regenerates the seeded small-scale
# replication sweep (under live invariant monitoring) and scores every cell
# of Figures 6/7/8/13 against the committed golden envelope
# (internal/experiments/envelopes.json). After a deliberate, reviewed
# change to scheduling behavior, regenerate the envelope with:
#
#     go run ./cmd/tracelens doctor fidelity -write internal/experiments/envelopes.json
#
# The invariant monitors over a recorded cell's logs (live -doctor plus
# `tracelens doctor` on both encodings) run in scripts/replaygate.sh, on
# the same recordings the replay checks use. Non-zero exit (from set -e)
# on any violation or out-of-band cell.
#
# Usage: scripts/doctorgate.sh

set -eu

cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/tracelens" ./cmd/tracelens

echo "doctorgate: fidelity scorecard..." >&2
"$tmp/tracelens" doctor fidelity >&2

echo "doctorgate: OK — fidelity within envelope" >&2
