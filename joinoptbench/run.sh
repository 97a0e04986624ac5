#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it; every flag
# is passed through (see README.md). Everything the build and the run write
# stays under .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off XDG_CONFIG_HOME="$out/config"
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
(cd joinoptbench && go build -o "$out/joinoptbench" .) >&2
exec "$out/joinoptbench" "$@"
