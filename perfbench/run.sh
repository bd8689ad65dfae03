#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments, e.g.
#   bash perfbench/run.sh --workload pfe-agg --seed 1 --seconds 10 --trace 0
# Every file the build writes stays under .bench_build at the checkout root.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
(
	cd "$root/perfbench"
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
		GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false \
		go build -o "$out/perfbench" .
)
PERFBENCH_COMMIT=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown) \
	exec "$out/perfbench" "$@"
