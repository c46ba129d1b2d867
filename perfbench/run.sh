#!/usr/bin/env bash
# Builds the repository's CLIs and the benchmark from this checkout, then
# runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload scan|survey|advise --seed N --seconds S --trace 0|1
#
# Everything it builds or writes stays under .bench_build/perfbench: the Go
# build cache, the binaries, the per-seed dataset cache and the trace spans.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd" ]]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/ here)" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0

go build -o "$out/bin/" ./cmd/zmapscan ./cmd/surveyor ./cmd/analyze ./cmd/advisord >&2
go -C perfbench build -o "$out/bin/perfbench" . >&2
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
