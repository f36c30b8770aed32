#!/usr/bin/env bash
# Builds kbench and runs it against the tree it is invoked from:
#
#   bash cmd/kbench/run.sh [-workload a,b] [-seed N] [-seconds N] [-trace 0|1]
#
# Run it from the repository root. Every file the Go toolchain and the
# benchmark write lands under .bench_build/ in that directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" # the go command's telemetry and env files
export GOTOOLCHAIN=local GOPROXY=off

go build -C cmd/kbench -o "$out/bin/kbench" .
exec "$out/bin/kbench" "$@"
