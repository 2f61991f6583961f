#!/bin/sh
# Build the benchmark from source, then run it:
#   bash bench/e2e/run.sh --workload serve_sweep --seed 3 --seconds 25 --trace 0
# Run from the repository root; everything it writes stays under it.
set -eu
mkdir -p .bench_build/tmp
TMPDIR="$PWD/.bench_build/tmp"
XDG_CACHE_HOME="$PWD/.bench_build/cache"
DUNE_CACHE=disabled
export TMPDIR XDG_CACHE_HOME DUNE_CACHE
dune build --root . --display quiet ./bench/e2e/aqtbench.exe ./bench/e2e/sampler.exe 1>&2
exec ./_build/default/bench/e2e/aqtbench.exe "$@"
