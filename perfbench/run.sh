#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload verify-exact --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. The Go build cache and temporary files stay
# under .bench_build/, and the build is offline: the module needs nothing
# beyond the standard library and the repository itself.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
  GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
