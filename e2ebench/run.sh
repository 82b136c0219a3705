#!/usr/bin/env bash
# Build the shipped binaries and the benchmark from source, then run the
# benchmark with the arguments given. Run from the repository root:
#   bash e2ebench/run.sh --workload read --seed 1 --seconds 10 --trace 0
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --offline --manifest-path Cargo.toml \
    --bin s3pg-convert --bin s3pg-serve >&2
cargo build --release --quiet --offline --manifest-path e2ebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/e2ebench" "$@"
