#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it; every argument goes to the benchmark binary, e.g.
#
#   bash perfbench/run.sh --workload q4-dense --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the run records (per-run JSON,
# span files) stay under .bench_build/ at the checkout's root. Build
# output goes to standard error, so the last line of standard output
# is the benchmark's JSON summary.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/modcache"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false

(cd "$here" && go build -o "$build/perfbench" .) >&2

cd "$root"
exec "$build/perfbench" -out "$build/out" "$@"
