#!/usr/bin/env bash
# Builds the step-level benchmark and runs it with the given arguments, from
# the repository root:
#
#   bash stepbench/run.sh --workload fp4-resume --seed 1 --seconds 30 --trace 0
#
# The binary runs as a child of this script rather than replacing it (as
# `cargo run` does), so its `getrusage(RUSAGE_CHILDREN)` peak covers only
# the rank workers it launches, not the compiler processes of the build.
set -euo pipefail
cargo build --release --offline --quiet --manifest-path stepbench/Cargo.toml
"${CARGO_TARGET_DIR:-stepbench/target}/release/stepbench" "$@"
