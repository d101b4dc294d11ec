#!/usr/bin/env bash
# Full pre-merge gate: formatting, lints (warnings are errors), all tests.
# Run from anywhere; operates on the workspace that contains this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test --workspace"
cargo test -q --workspace

echo "==> cargo build --examples"
cargo build -q --workspace --examples

echo "==> benchmark unit tests (BENCHMARK.json consistency, statistics, /proc parsing)"
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> benchmark smoke (--quick: ground truth, screened reports, bit-identity sample)"
cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- --quick >/dev/null

echo "==> docs/report_full.md is what report --all prints (release, ~2 min)"
cargo build -q --release -p intersect-bench --bin report
target/release/report --all 2>/dev/null | diff -u docs/report_full.md -

echo "==> telemetry plane smoke"
./scripts/telemetry_smoke.sh

echo "==> network transport smoke (release binaries: it includes a 40000-session burst)"
cargo build -q --release --bin intersect-serve --bin loadgen
INTERSECT_SERVE_BIN=target/release/intersect-serve INTERSECT_LOADGEN_BIN=target/release/loadgen \
  ./scripts/net_smoke.sh

echo "==> multiparty transport + metrics smoke"
./scripts/multiparty_smoke.sh

echo "==> trace plane smoke"
./scripts/trace_smoke.sh

echo "==> intersect-top dashboard smoke"
./scripts/tui_smoke.sh

echo "==> all checks passed"
