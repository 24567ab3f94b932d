#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Run from the
# repository root; every argument is passed to the runner, e.g.
#
#   bash perfbench/run.sh --workload dest-osm --seed 3 --seconds 12 --trace 0
#
# Build cache, temporary files, generated datasets and reports all stay
# under .bench_build/ in the current directory.
set -euo pipefail
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
