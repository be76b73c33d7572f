#!/usr/bin/env bash
# Build the benchmark, run its unit tests, and smoke-run all four
# workloads (schema + output checks only, a few seconds). Wraps what a
# later workflow change would call; exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release --offline
cargo test --release --offline --quiet
cargo run --release --offline --quiet -- run --smoke
cargo run --release --offline --quiet -- trace --smoke
