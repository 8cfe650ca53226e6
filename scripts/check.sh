#!/usr/bin/env bash
# Full local verification gate — what CI runs. Fails fast.
#
#   scripts/check.sh          # everything, including bench emission + obs-diff
#   scripts/check.sh --fast   # skip the bench runs and the regression gate
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    *)
      echo "usage: scripts/check.sh [--fast]" >&2
      exit 2
      ;;
  esac
done

echo "==> no build artifacts tracked in git"
if git ls-files | grep -q '^target/'; then
  echo "error: files under target/ are tracked in git:" >&2
  git ls-files | grep '^target/' | head >&2
  exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> cargo doc --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

echo "==> fedroad-lint (secret-hygiene static analysis, SARIF to target/)"
cargo run -q -p fedroad-lint -- --sarif-out target/lint.sarif

# The negative fixtures (crates/lint/fixtures/bad_*.rs) must each make the
# linter exit non-zero; `binary_exit_codes_match` in
# crates/lint/tests/self_test.rs asserts that as part of `cargo test -q`.

echo "==> cargo test -q"
cargo test -q

# The tests must leave committed artifacts alone: a test that saves a
# report into results/ (or over a BENCH baseline) fails here.
echo "==> tests left committed artifacts untouched"
git diff --exit-code -- results/ BENCH_*.json

# perfbench/ is its own workspace (outside default-members), so the test
# step above neither builds nor tests it.
echo "==> perfbench tests"
cargo test -q --manifest-path perfbench/Cargo.toml

if [ "$FAST" = 1 ]; then
  echo "==> --fast: comparison-kernel microbench smoke (quick)"
  cargo run -q --release -p fedroad-bench --bin compare_bench -- --quick >/dev/null
  echo "==> --fast: skipping the remaining bench emission and the obs-diff regression gate"
  echo "==> all checks passed (fast)"
  exit 0
fi

echo "==> instrumented example query + artifact validation"
cargo run -q --release -p fedroad-bench --bin trace_query

echo "==> throughput sweep (quick)"
cargo run -q --release -p fedroad-bench --bin throughput -- --quick >/dev/null

echo "==> live-traffic update scenario (quick)"
cargo run -q --release -p fedroad-bench --bin live_traffic -- --quick >/dev/null

echo "==> comparison-kernel microbench (quick)"
cargo run -q --release -p fedroad-bench --bin compare_bench -- --quick >/dev/null

echo "==> core-fraction ablation smoke (quick)"
cargo run -q --release -p fedroad-bench --bin ablations -- --quick >/dev/null

echo "==> obs-diff regression gate vs committed baselines"
# Counter-style metrics are deterministic and hard-fail past the threshold;
# wall-clock and modeled-throughput rows are machine-dependent, so obs-diff
# already treats them as warn-only. Schema drift is a hard error (exit 2).
cargo run -q --release -p fedroad-bench --bin obs_diff -- \
  BENCH_run.json results/BENCH_run.json
cargo run -q --release -p fedroad-bench --bin obs_diff -- \
  BENCH_throughput.json results/BENCH_throughput.json
cargo run -q --release -p fedroad-bench --bin obs_diff -- \
  BENCH_update.json results/BENCH_update.json
cargo run -q --release -p fedroad-bench --bin obs_diff -- \
  BENCH_compare.json results/BENCH_compare.json

# Concurrency checks for the threaded protocol runner, the cross-query round
# scheduler, and the batch executor come in two layers: statically, the
# fedroad-lint lock-set rules R10-R13 run as part of the lint step above;
# dynamically, ThreadSanitizer needs a nightly toolchain and rebuilt std, so
# it is opt-in here (CI runs it as a separate *blocking* job with per-step
# timeouts — see .github/workflows/ci.yml `tsan`). On a machine with nightly:
#
#   export RUSTFLAGS="-Zsanitizer=thread"
#   cargo +nightly test -Zbuild-std --target x86_64-unknown-linux-gnu \
#     -p fedroad-mpc threaded
#   cargo +nightly test -Zbuild-std --target x86_64-unknown-linux-gnu \
#     -p fedroad-mpc scheduler
#   cargo +nightly test -Zbuild-std --target x86_64-unknown-linux-gnu \
#     --test batch_equals_sequential --test obs_trace_end_to_end
#
echo "==> all checks passed"
