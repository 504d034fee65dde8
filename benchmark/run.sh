#!/usr/bin/env bash
# Builds the benchmark from source and runs it; run from the repository
# root. Everything the build writes stays under .bench_build/ there.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off
go build -C "$(dirname "$0")" -o "$build/benchmark" .
exec "$build/benchmark" "$@"
