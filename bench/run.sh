#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json names this
# script as the command. Everything the build writes (compiler cache,
# temporary files, the binary) stays under bench/.build in the checkout.
# The binary replaces this shell, so no child process is left behind.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/modcache" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/spider-bench" .)
cd "$here/.."
exec "$build/spider-bench" --out bench/out "$@"
