#!/usr/bin/env bash
# Build the benchmark from source and run one workload.
#
# Usage (from the repository root):
#   bash ldbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The environment is pinned here because glibc reads its malloc tuning at
# process start: the same thresholds scripts/bench.sh sets (keep multi-MB
# checkpoint buffers on the recycled heap instead of fresh mmaps whose
# pages fault in cold), and a compute pool no wider than the host.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path ldbench/Cargo.toml >&2

nproc="$(getconf _NPROCESSORS_ONLN)"
threads=1
exec env MALLOC_MMAP_THRESHOLD_=134217728 MALLOC_TRIM_THRESHOLD_=134217728 \
  LOWDIFF_NUM_THREADS="$threads" "$CARGO_TARGET_DIR/release/ldbench" "$@"
