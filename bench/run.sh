#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the repository root:
#
#   bash bench/run.sh [-workload name] [-seed n] [-seconds s] [-trace 0|1] ...
#
# Everything the build and the run write stays inside the checkout: the Go
# build cache, the binary, Go's own temp and config files and the osfs
# workloads' temp dirs all live under .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
export TMPDIR="$build/tmp"
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
