#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the checkout root (Go build
# and module caches included, so nothing is written outside the
# checkout) and runs it with the caller's arguments from the root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/xcbench" .)
cd "$root"
exec "$build/xcbench" "$@"
