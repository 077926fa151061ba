#!/usr/bin/env bash
# Builds the benchmark and the dcsa_synth CLI (which serve_mix runs as a
# server subprocess) from the checkout's sources, then runs the benchmark.
#   bash perfbench/run.sh --workload table1|serve_mix --seed N \
#     --seconds S --trace 0|1
set -u
root="$(cd "$(dirname "$0")/.." && pwd)" || exit 2
cd "$root" || exit 2
dune build --root . --profile release --display quiet \
  ./perfbench/bench.exe ./bin/dcsa_synth.exe 1>&2 || exit 2
exec ./_build/default/perfbench/bench.exe "$@"
