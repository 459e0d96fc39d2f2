#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload serve-cma2c-full --seed 1042 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, the Go build and module
# caches and the Go tool's user configuration all live under .bench_build/
# in the checkout, so nothing is written outside it.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
out="$build/perfbench"
mkdir -p "$out"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
