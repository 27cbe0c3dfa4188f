#!/usr/bin/env bash
# The one command of the host-time benchmark.
#
#   perfbench/run.sh [--seed S] [--workload W] [--seconds T] [--trace 0|1]
#   perfbench/run.sh bless
#   perfbench/run.sh compare A.json B.json
#
# Builds the `vpcec` under test (root workspace, its own release
# profile) and the `perfbench` harness (this package's own workspace)
# into one target directory, offline, then hands its arguments to the
# harness. With no arguments: all six workloads, both halves, every
# metric printed by name, `perfbench/out/result.json` written.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Both builds run from the repository root, so a relative
# CARGO_TARGET_DIR (the acceptance driver sets one) names one place.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
# Build chatter goes to stderr: stdout belongs to the result.
cargo build --release --offline --quiet -p vpce --bin vpcec 1>&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2

exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
