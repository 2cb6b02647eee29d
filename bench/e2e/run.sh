#!/usr/bin/env bash
# Builds the gdprs CLI and the benchmark from the checkout this script sits
# in, then runs the benchmark from the checkout's root. Arguments go to the
# benchmark unchanged, e.g.
#   bash bench/e2e/run.sh --workload check-closure --seed 1 --seconds 20 --trace 0
# With no --workload it runs all four workloads, end to end and traced.
set -euo pipefail
root="$(cd "$(dirname "$0")/../.." && pwd)"
cd "$root"
if [ ! -f dune-project ] || [ ! -f bin/gdprs.ml ]; then
  echo "run.sh: $root holds no gdprs sources to build" >&2
  exit 2
fi
# the build cache would write outside the checkout
DUNE_CACHE=disabled dune build --root . bin/gdprs.exe bench/e2e/e2e.exe 1>&2
exec ./_build/default/bench/e2e/e2e.exe --gdprs ./_build/default/bin/gdprs.exe \
  --workdir bench/e2e/_run "$@"
