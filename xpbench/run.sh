#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# on. Run it from the root of the repository:
#
#   bash xpbench/run.sh --workload news-route --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the traced run's spans stay under
# .bench_build in the current directory. Outside a full checkout the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=

(cd "$here" && go build -o "$out/bin/xpbench" .)
exec "$out/bin/xpbench" "$@"
