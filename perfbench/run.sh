#!/usr/bin/env bash
# Build the server and the benchmark from this checkout, then run one
# benchmark run:
#
#   bash perfbench/run.sh --workload point --seed 1 --seconds 10 --trace 0
#
# The server runs with its shipped defaults, so any MMDB_* knob in the
# environment is dropped.  Build output goes to stderr; the last line of
# stdout is the result.
set -eu
cd "$(dirname "$0")/.."
for v in $(compgen -e | grep '^MMDB_' || true); do unset "$v"; done
export DUNE_CACHE=disabled
dune build --root . ./bin/mmdb_server.exe ./perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe --server ./_build/default/bin/mmdb_server.exe "$@"
