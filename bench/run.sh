#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything it writes — the Go build cache and the binary — goes under
# .bench_build/ at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
(cd "$here" && go build -o "$build/bench" .) >&2
exec "$build/bench" "$@"
