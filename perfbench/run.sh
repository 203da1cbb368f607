#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# for example:
#   bash perfbench/run.sh --workload paxos-spor --seed 1 --seconds 30 --trace 0
# Run it from the repository root. The Go build cache, the binary and the
# traced run's CPU profiles all go to .bench_build/ there.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --profile-dir "$out" "$@"
