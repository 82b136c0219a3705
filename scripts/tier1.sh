#!/usr/bin/env bash
# Tier-1 verification: everything must pass before a change lands.
# Fully offline — the workspace has no external dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q =="
cargo test -q

# The benchmark harness is its own workspace, so the root build and
# tests above never compile it; build it and run its self-tests here so an
# API change in the engine crates cannot break it silently.
echo "== cargo test -q --manifest-path e2ebench/Cargo.toml =="
cargo test -q --manifest-path e2ebench/Cargo.toml

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --all-targets -- -D warnings =="
cargo clippy --all-targets -- -D warnings

echo "== cargo doc --no-deps (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

echo "tier-1 OK"
