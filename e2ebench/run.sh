#!/usr/bin/env bash
# Build litsearch and the benchmark from this checkout, then run one
# benchmark invocation:
#
#   bash e2ebench/run.sh --workload wire_6k --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last line of stdout is the run's JSON
# result. CARGO_TARGET_DIR defaults to .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
if [[ ! -f Cargo.toml || ! -d crates/serve ]]; then
    echo "e2ebench: $root is not a litsearch checkout (no Cargo.toml or crates/serve)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin litsearch >&2
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/e2ebench" --litsearch "$CARGO_TARGET_DIR/release/litsearch" "$@"
