#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments, from the root of a checkout of the repository:
#
#   bash e2ebench/run.sh --workload replay-daily --seed 1 --seconds 40 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout:
# the Go build cache, the binary, WAL directories and trace files.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$build/bin/e2ebench" .)
exec "$build/bin/e2ebench" "$@"
