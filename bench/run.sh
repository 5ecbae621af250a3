#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it from the
# repository root, passing every argument through. The Go build cache,
# temporary files and the go command's own configuration and telemetry
# stay under .bench_build/ too, so a run writes nothing outside the
# checkout. Usage and flags: bench/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
build=$root/.bench_build
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C bench build -o "$build/planaria-bench" .
exec "$build/planaria-bench" "$@"
