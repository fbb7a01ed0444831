#!/usr/bin/env bash
# Builds sdd, sddserve and the benchmark harness from this checkout's
# sources into .bench_build/ and runs the harness. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload pipeline --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays under .bench_build/.
set -euo pipefail
if [[ ! -f go.mod || ! -d cmd/sddserve || ! -f perfbench/go.mod ]]; then
  echo "perfbench: run from the root of an sddict checkout" >&2
  exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/xdg"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
  GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/xdg" XDG_CACHE_HOME="$out/xdg" \
  GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
go build -o "$out/bin/" ./cmd/sdd ./cmd/sddserve >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" "$@"
