#!/usr/bin/env bash
# Build the program and the benchmark from source, then run the benchmark.
#
# Usage (from anywhere; it works from the repository root):
#   bash perfbench/run.sh --workload <des-matrix|regen|serve-mix> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build/, apart from
# the repository's own target/). The last line of standard output is the
# JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline -q -p trainbox-serve -p trainbox-bench --bins >&2
cargo build --release --offline -q --manifest-path perfbench/Cargo.toml >&2
# A child, not exec: the peak memory of the benchmark's own children must
# not include the compilers that ran above.
"$CARGO_TARGET_DIR/release/perfbench" "$@"
