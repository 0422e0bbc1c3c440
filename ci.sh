#!/usr/bin/env bash
# Full offline verification: format, lint, build, test.
# Tier-1 (ROADMAP.md) is the build + test pair; fmt/clippy run first so
# style and lint failures surface before the slow steps.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (workspace, warnings are errors)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== cargo clippy (hot-path crates forbid unwrap outside tests)"
cargo clippy --offline --no-deps -p snapedge-core -p snapedge-webapp --lib -- \
    -D warnings -D clippy::unwrap_used

echo "== cargo doc (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "== cargo build --release"
cargo build --offline --release --workspace

echo "== cargo test"
cargo test --offline -q --workspace

echo "== golden pin (exact scenario numbers and the tiny after-ACK trace)"
cargo test --offline -q -p snapedge-integration --test golden

echo "== chaos suite (fault injection across a fixed seed matrix)"
cargo test --offline -q -p snapedge-integration --test chaos

echo "== failover suite (edge-fleet handoff and fleet-of-one bit-compat)"
cargo test --offline -q -p snapedge-integration --test failover

echo "== prediction suite (proactive link health, predict-off bit-compat)"
cargo test --offline -q -p snapedge-integration --test prediction

echo "== engine suite (fleet scheduler determinism, legacy-loop bit-compat)"
cargo test --offline -q -p snapedge-integration --test engine

echo "== metering suite (sandbox caps, meter-off bit-compat, exhaustion failover)"
cargo test --offline -q -p snapedge-integration --test metering

echo "== effects suite (effects-on replay identity, pre-ship gates, effects-off bit-compat)"
cargo test --offline -q -p snapedge-integration --test effects

echo "== interning suite (incremental-capture bit-identity, meter-visible O(changed) capture)"
cargo test --offline -q -p snapedge-integration --test interning

echo "== balance suite (queue-aware selection, admission control, fair share, balance-off bit-compat)"
cargo test --offline -q -p snapedge-integration --test balance

echo "== restore fuzz (byte-mutated snapshots and deltas restore or fail with a typed error, never panic)"
cargo test --offline -q -p snapedge-webapp --test restore_fuzz

echo "== meter exhaustion CLI smoke (capped primary fails over, run still succeeds)"
meter_smoke=$(cargo run --offline --release -p snapedge-cli --bin snapedge -- run \
    --model tiny_cnn --servers "edge-a,meter=ops=1;edge-b")
grep -q "edge-b" <<<"$meter_smoke"

echo "== CLI strictness smoke (a misspelled flag is rejected, --help exits 0)"
if typo=$(cargo run --offline --release -p snapedge-cli --bin snapedge -- fleet --clinets 5 2>&1); then
    echo "snapedge fleet --clinets 5 succeeded; unknown flags must be rejected" >&2
    exit 1
fi
grep -q "clinets" <<<"$typo"
cargo run --offline --release -p snapedge-cli --bin snapedge -- --help >/dev/null

echo "== fleet scale smoke (10k clients under a wall-clock budget)"
cargo run --offline --release -p snapedge-bench --bin fleet_scale

echo "== balancing micro (report-only: rotation vs queue-aware p99 on a skewed fleet)"
cargo run --offline --release -p snapedge-bench --bin fleet_balance

echo "== incremental capture micro (report-only: dirty-tracked vs full-walk capture time)"
cargo run --offline --release -p snapedge-bench --bin capture_incremental

echo "== identifier lookup micro (report-only: slot/symbol resolution throughput)"
cargo run --offline --release -p snapedge-bench --bin lookup_hot

echo "== determinism lint (wall-clock, hash-iter, unwrap-hot-path, collect-in-loop, string-keyed-map)"
cargo run --offline --release -p snapedge-lint

echo "== static snapshot verifier smoke (paper apps + live captures)"
cargo run --offline --release -p snapedge-cli --bin snapedge -- analyze --all-apps true

echo "== effect analysis smoke (lattice report + effects-on session per model)"
cargo run --offline --release -p snapedge-cli --bin snapedge -- analyze --all-apps true --effects true

echo "ci.sh: all green"
