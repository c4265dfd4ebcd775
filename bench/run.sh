#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the arguments given.
# Everything the build and the run write — Go's build cache, the binary, the
# durable boards of a run — stays under .bench_build/ (and bench/out/ for trace
# files), so nothing outside the checkout is touched.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
env GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off \
	go build -C bench -o "$build/vdp-bench" .
exec "$build/vdp-bench" "$@"
