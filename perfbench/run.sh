#!/usr/bin/env bash
# Builds the system under test (planed, experiments) and the benchmark
# harness from this checkout, then runs the harness with the given
# arguments:
#
#   bash perfbench/run.sh --workload office-traffic --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build product, Go cache and
# result record stays under .bench_build/ in the checkout. The build
# happens before any timing starts, so it never counts toward setup_s.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/home"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local
export GOPROXY=off

# The system under test: the tree's own commands, built from source.
go build -o "$out/bin/" ./cmd/planed ./cmd/experiments >&2
# The harness is a module of its own that builds against this tree.
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -bin "$out/bin" -results "$out/results" "$@"
