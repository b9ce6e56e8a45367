#!/usr/bin/env bash
# Builds the benchmark harness from this directory and runs it against the
# checkout this directory sits in. Everything the build and the run write —
# Go's build cache and temporary files, the binaries, the generated CSVs and
# the servers' data directories — stays under .bench_build/ and
# benchmark/out/ in the checkout. Arguments go to the harness (see README.md):
#
#   bash benchmark/run.sh --workload select_mix --seed 1 --seconds 20 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/bin"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# Nothing is downloaded: the harness needs the standard library and the
# checkout's own packages only.
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

(cd "$here" && go build -o "$build/bin/benchmark" .)
exec "$build/bin/benchmark" -root "$root" "$@"
