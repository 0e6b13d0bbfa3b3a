#!/usr/bin/env bash
# Builds the benchmark and runs it from the root of the checkout:
#
#   bash benchmark/run.sh -workload replay-failstop -seed 1 -seconds 20 -trace 0
#
# Everything the build and the run write — the Go build cache, the
# binary, the service's state directories, the trace — goes to
# .bench_build at the root of the checkout. The benchmark is a module of
# its own that imports the repository's packages through a replace
# directive, so it only builds inside a checkout of the repository.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/adcc-benchmark" .)
cd "$root"
exec "$out/adcc-benchmark" -dir "$out" "$@"
