#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs one workload:
#
#   bash perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of the repository. Build outputs, the Go build cache
# and span dumps go under $CARGO_TARGET_DIR (default .bench_build), so the
# run reads and writes nothing outside the checkout but the Go toolchain.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$PWD/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --out "$out" "$@"
