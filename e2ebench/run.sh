#!/usr/bin/env bash
# Builds skyserved and the e2ebench program from this checkout's source into
# .bench_build/, then runs one benchmark invocation. Run it from the
# repository root; every argument is passed to e2ebench:
#
#   bash e2ebench/run.sh --workload mine-fresh --seed 1 --seconds 50 --trace 0
#
# The Go build cache, temporary files and the benchmark's own output (WALs,
# server logs, results, spans) all stay under .bench_build/.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's telemetry and config files here too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

go build -o "$out/bin/skyserved" ./cmd/skyserved
(cd e2ebench && go build -o "$out/bin/e2ebench" .)
exec "$out/bin/e2ebench" -server "$out/bin/skyserved" -out "$out/e2ebench" "$@"
