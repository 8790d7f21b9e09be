#!/usr/bin/env bash
# Build the query server (xpq) and the benchmark from this checkout, then
# run the benchmark against the server binary just built. Run it from the
# repository root; every argument is passed to bench_e2e, e.g.
#
#   bash crates/bench_e2e/run.sh --workload point --seed 1 --seconds 20 --trace 0
#
# Build outputs go to $CARGO_TARGET_DIR (default: target).
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
if [[ ! -f Cargo.toml || ! -d crates/core ]]; then
    echo "run.sh: run from the repository root (Cargo.toml and crates/core not found)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --bin xpq >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bin bench_e2e >&2
exec "$CARGO_TARGET_DIR/release/bench_e2e" --xpq "$CARGO_TARGET_DIR/release/xpq" "$@"
