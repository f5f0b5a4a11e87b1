#!/usr/bin/env bash
# Builds the release binaries the benchmark drives (`figures`,
# `subwarp-serve`, `subwarp-router`) and the benchmark harness itself, then
# runs the harness with the given arguments:
#
#   bash perfbench/run.sh --workload figures|serve-mix \
#        --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default `target`).
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --manifest-path Cargo.toml \
    -p subwarp-bench --bin figures -p subwarp-serve --bin subwarp-serve --bin subwarp-router >&2
cargo build --release --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
