#!/usr/bin/env bash
# Builds iddqbench from the source in this checkout and runs it with the
# given flags. Run it from the repository root:
#
#   bash cmd/iddqbench/run.sh --workload coarse-c1908 --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary, scratch directories and result files all
# stay under .bench_build/ in the current directory; the first run fills the
# build cache, later runs reuse it.
set -euo pipefail

root="$PWD"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOENV=off

(cd "$root/cmd/iddqbench" && go build -o "$out/iddqbench" .)
exec "$out/iddqbench" "$@"
