#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Every file the build or the run leaves behind lives under .bench_build/
# at the root of the checkout; nothing outside the checkout is written.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/benchmark" && go build -o "$build/vpbenchmark" .) 1>&2
cd "$root"
exec "$build/vpbenchmark" "$@"
