#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
#
#   bash perfbench/run.sh --workload hotspot-steal --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. The build cache, temporary files and the
# binary all live under $CARGO_TARGET_DIR (default .bench_build), so nothing
# is written outside the checkout. Without the repository's go.mod next to
# this directory the build fails and the script exits non-zero.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --state-dir "$out" "$@"
