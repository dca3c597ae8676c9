#!/usr/bin/env bash
# Entry point of BENCHMARK.json's command. Builds the harness into
# .bench_build at the root of the checkout, Go's build cache and temp
# files included, so that nothing is written outside the checkout, and
# runs it from bench/, where out/trace.json goes.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPROXY=off GOTOOLCHAIN=local
cd "$here"
go build -o "$build/pcmbench" .
exec "$build/pcmbench" "$@"
