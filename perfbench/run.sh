#!/usr/bin/env bash
# Builds the benchmark against the source tree it sits in and runs it with
# the given arguments, from the root of that tree. Every build artefact,
# cache and temporary file stays under .bench_build/ in the tree.
#
#   bash perfbench/run.sh --workload offline --seed 1 --seconds 30 --trace 0
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
