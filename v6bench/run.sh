#!/bin/sh
# Builds the v6bench benchmark from the sources of the checkout it is
# run from, then runs it. Run from the repository root:
#
#	sh v6bench/run.sh --workload mini-campaign --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and every file a run writes stay under
# .bench_build/ in the current directory.
set -eu
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gomod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/v6bench" .)
exec "$out/v6bench" --workdir "$out/work" "$@"
