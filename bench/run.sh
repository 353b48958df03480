#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build outputs (the binary, the Go build
# cache and the trace files) go to $CARGO_TARGET_DIR, default .bench_build,
# so the run reads and writes nothing outside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$root/bench" && go build -o "$out/hxbench-repo" .) >&2
exec "$out/hxbench-repo" -root "$root" -out "$out" "$@"
