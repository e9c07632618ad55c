#!/bin/sh
# Builds the benchmark command from source and runs it with the given
# arguments, from the root of a checkout:
#
#	sh bench/run.sh --workload serve-json --seed 3 --seconds 10 --trace 0
#
# The binary, the Go build cache and every temporary file stay under
# .bench_build/ at the checkout root. Without the repository's sources
# (go.mod and internal/ next to bench/) the build fails and the script
# exits non-zero before printing any result.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
