#!/usr/bin/env bash
# Build the benchmark harness from source and run it. Run from the root
# of a checkout; every argument is passed to the harness, e.g.
#   bash perfbench/run.sh --workload storm --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --self-check
# Build output goes to .bench_build (stderr only), scratch files to
# .perfbench_work; stdout carries only the harness's report.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: not at the root of a sunflow checkout" >&2
  exit 2
fi
build_dir=.bench_build
dune build --root . --build-dir "$build_dir" --profile release \
  --display quiet ./perfbench/main.exe >&2
PERFBENCH_NPROC="$(nproc 2>/dev/null || echo unknown)"
PERFBENCH_COMMIT="$(GIT_DIR=.git git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export PERFBENCH_NPROC PERFBENCH_COMMIT
exec "$build_dir/default/perfbench/main.exe" "$@"
