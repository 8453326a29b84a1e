#!/usr/bin/env bash
# Smoke gate for the benchmark package: its unit tests, then every
# workload on two scopes (--quick), then one traced run so the layer
# probes run too. Quick numbers are never compared with full runs; this
# only proves the harness builds, answers correctly and prints every
# metric.
set -euo pipefail
cd "$(dirname "$0")"
cargo test --release --offline --manifest-path Cargo.toml
cargo run --release --offline --quiet --manifest-path Cargo.toml -- \
    run --all --seed 1 --quick --out out/quick.json
cargo run --release --offline --quiet --manifest-path Cargo.toml -- \
    run --workload remote_warm --seed 1 --quick --trace 1 --out out/quick-traced.json
