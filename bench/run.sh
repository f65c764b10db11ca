#!/usr/bin/env bash
# The one command of the benchmark: builds the harness offline from source
# and runs it. From the repo root:
#
#   bench/run.sh run --seed 1          every workload, end-to-end metrics
#   bench/run.sh trace --seed 1        every workload, traced: per-layer metrics
#   bench/run.sh selfcheck             two sets of runs compared (BASELINE.md)
#   bench/run.sh --workload vb-wide --seed 1 --seconds 10 --trace 0
#
# Exits non-zero if the build fails or any draw's outputs differ from the
# sequential specification.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --quiet --release --offline --manifest-path bench/Cargo.toml -- "$@"
