#!/usr/bin/env bash
# Build the daemon and the benchmark from source, then run one benchmark
# invocation. Run from the root of an xsact checkout:
#
#   bash e2ebench/run.sh --workload cold_compare --seed 1 --seconds 15 --trace 0
#
# Build output goes to stderr; stdout carries the benchmark's report, whose
# last line is the JSON result.
set -euo pipefail

if [[ ! -f dune-project || ! -f bin/xsact_serve.ml || ! -f e2ebench/e2e.ml ]]; then
  echo "e2ebench/run.sh: run from the root of an xsact checkout" >&2
  exit 2
fi

# no shared dune cache: the build reads and writes only inside the checkout
DUNE_CACHE=disabled dune build --root . ./e2ebench/e2e.exe ./bin/xsact_serve.exe 1>&2
exec ./_build/default/e2ebench/e2e.exe \
  --serve-exe ./_build/default/bin/xsact_serve.exe --workdir .e2ebench "$@"
