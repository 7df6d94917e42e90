#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed through, e.g.
#
#   bash perfbench/run.sh --workload harvest-clank --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and span dumps go to .bench_build/ in
# the current directory, so nothing is written outside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ not found)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
