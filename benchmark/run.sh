#!/usr/bin/env bash
# Builds the benchmark package (release, offline) and runs one workload:
#
#   bash benchmark/run.sh --workload serve_wire [--seed N] [--seconds S] [--trace 0|1] [--scale F] [--dir PATH]
#
# Build output goes to $CARGO_TARGET_DIR (default benchmark/target); the
# run's scratch directory and trace file live beside the executable.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/k2-benchmark" "$@"
