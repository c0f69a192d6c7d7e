#!/usr/bin/env bash
# Builds the e2ebench program and the indexd daemon from this checkout, then
# runs one workload:
#
#   bash e2ebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Everything it builds or writes (Go build
# cache, binaries, temporary index directories) stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/indexd || ! -f e2ebench/go.mod ]]; then
	echo "e2ebench: run from the repository root (needs go.mod, cmd/indexd and e2ebench/)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off GOENV=off CGO_ENABLED=0

go build -buildvcs=false -o "$out/indexd" ./cmd/indexd
(cd e2ebench && go build -buildvcs=false -o "$out/e2ebench" .)
exec "$out/e2ebench" -indexd "$out/indexd" -tmp "$out/tmp" "$@"
