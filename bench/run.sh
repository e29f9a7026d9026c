#!/usr/bin/env bash
# The benchmark's entry point (BENCHMARK.json "command"): builds the harness
# with every Go cache and temp file inside the checkout, then runs it. The
# harness itself builds the programs under test the same way.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$build/bin/bench" .)
cd "$root"
exec "$build/bin/bench" "$@"
