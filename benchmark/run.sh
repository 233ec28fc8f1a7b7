#!/usr/bin/env bash
# Builds the suite inside the checkout and runs it with the given flags.
# Everything the build writes (build cache, binary, temp files) stays
# under .bench_build/ at the checkout root, so a run touches nothing
# outside the checkout and needs no $HOME.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/infogram-bench" .)
exec "$build/infogram-bench" -out "$here/out" "$@"
