#!/usr/bin/env bash
# Builds the benchmark and runs it. With no arguments: every workload,
# three untraced passes each, medians printed by name with unit.
#
#   benchmark/run.sh [--seed N] [--passes P] [--traced] [--workload W] [--out FILE]
#   benchmark/run.sh --compare A.json B.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   (one run, one JSON line)
#
# Build output goes to stderr so the last line of stdout is the result.
set -eu
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
# Cargo resolves a relative CARGO_TARGET_DIR against the directory it was
# started from, which is the repository root here.
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/easched-benchmark" "$@"
