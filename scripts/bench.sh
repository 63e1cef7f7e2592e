#!/usr/bin/env bash
# Run the benchmark-regression harness from the repo root.
# All flags are forwarded to cmd/bench, e.g.:
#   scripts/bench.sh -out BENCH_2.json -benchtime 1s
#   scripts/bench.sh -out wire.json -cpu 1,4 -pattern Ablation_WireLoad
set -euo pipefail
cd "$(dirname "$0")/.."
exec go run ./cmd/bench "$@"
