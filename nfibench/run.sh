#!/usr/bin/env bash
# Builds the nfi release binary and the benchmark from source, then
# runs one benchmark workload. Run from the repository root:
#
#   bash nfibench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f Cargo.toml || ! -d crates ]]; then
  echo "nfibench: $root is not a checkout of the repository" >&2
  exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --locked --quiet --bin nfi >&2
cargo build --release --offline --locked --quiet --manifest-path nfibench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/nfibench" --nfi "$CARGO_TARGET_DIR/release/nfi" "$@"
