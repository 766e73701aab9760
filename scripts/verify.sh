#!/usr/bin/env sh
# Tier-1 verification: build + test, fully offline (no external crates).
# Run from the repository root: sh scripts/verify.sh
#
# --thorough additionally re-runs the test suite with 512 property-test
# cases per property (the in-repo harness in flexio_sim::prop honours
# PROPTEST_CASES), for a nightly-ish deeper sweep.
set -eu

cd "$(dirname "$0")/.."

THOROUGH=0
for arg in "$@"; do
  case "$arg" in
    --thorough) THOROUGH=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

echo "== cargo build --release --offline =="
cargo build --release --offline

# --all-features: a feature gate whose code does not compile fails here.
echo "== cargo clippy --workspace --all-targets --all-features --offline -- -D warnings =="
cargo clippy --workspace --all-targets --all-features --offline -- -D warnings

echo "== cargo test -q --release --offline =="
cargo test -q --release --offline

# The benchmark harness is its own workspace (perfbench/Cargo.toml), so
# the root test run above never builds or tests it. Its contract tests
# run every workload at tiny scale and check the printed metric set
# against BENCHMARK.json.
echo "== cargo test --release --offline --manifest-path perfbench/Cargo.toml =="
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

if [ "$THOROUGH" = 1 ]; then
  echo "== PROPTEST_CASES=512 cargo test -q --release --offline --workspace (property sweep) =="
  PROPTEST_CASES=512 cargo test -q --release --offline --workspace

  # Chaos sweep: the fault-injection suite with an explicitly pinned
  # base seed, so a failure here reproduces verbatim from the log.
  # Override FLEXIO_PROP_SEED / PROPTEST_CASES in the environment to
  # explore a different slice of the fault space.
  echo "== chaos sweep (tests/fault_injection.rs) =="
  FLEXIO_PROP_SEED="${FLEXIO_PROP_SEED:-0xf1e810}" \
    PROPTEST_CASES="${PROPTEST_CASES:-512}" \
    cargo test -q --release --offline --test fault_injection

  # Differential engine-parity sweep: pipelined flexible AND ROMIO runs
  # against their depth-1 serial oracles on the shared pipeline core,
  # same pinned seed discipline as the chaos sweep.
  echo "== engine parity sweep (tests/engine_pipeline_parity.rs) =="
  FLEXIO_PROP_SEED="${FLEXIO_PROP_SEED:-0xf1e810}" \
    PROPTEST_CASES="${PROPTEST_CASES:-512}" \
    cargo test -q --release --offline --test engine_pipeline_parity

  # Zerocopy leg: the same parity + chaos sweeps with the packed staging
  # path forced (`flexio_zero_copy` off), same seeds — both sides of the
  # hint must hold every invariant. The zero-copy side is the default
  # above, so only the off side needs a separate pass.
  echo "== zerocopy-off sweep (parity + chaos, FLEXIO_ZERO_COPY=disable) =="
  FLEXIO_ZERO_COPY=disable \
    FLEXIO_PROP_SEED="${FLEXIO_PROP_SEED:-0xf1e810}" \
    PROPTEST_CASES="${PROPTEST_CASES:-512}" \
    cargo test -q --release --offline --test engine_pipeline_parity --test fault_injection

  # Workload-fuzz leg: the seeded scenario fuzzer (five workload
  # families x oracle/engine/zero-copy/fault/determinism axes), same
  # pinned seed discipline; a red case prints a `cc <seed>` line (plus
  # its shrunk `s<level>` form) to pin in
  # tests/workload_fuzz.proptest-regressions.
  echo "== workload fuzz sweep (tests/workload_fuzz.rs) =="
  FLEXIO_PROP_SEED="${FLEXIO_PROP_SEED:-0xf1e810}" \
    PROPTEST_CASES="${PROPTEST_CASES:-512}" \
    cargo test -q --release --offline --test workload_fuzz

  echo "== workload fuzz sweep, packed path (FLEXIO_ZERO_COPY=disable) =="
  FLEXIO_ZERO_COPY=disable \
    FLEXIO_PROP_SEED="${FLEXIO_PROP_SEED:-0xf1e810}" \
    PROPTEST_CASES="${PROPTEST_CASES:-512}" \
    cargo test -q --release --offline --test workload_fuzz

  # Crash-recovery leg: the directed crash suite, then the crash-point
  # fuzz axis with the recovery coin pinned to each side in turn, so
  # both positions of `flexio_crash_recovery` sweep the identical
  # crash-point / victim / torn-rate case list under the pinned seed.
  echo "== crash-recovery directed suite (tests/crash_recovery.rs) =="
  FLEXIO_PROP_SEED="${FLEXIO_PROP_SEED:-0xf1e810}" \
    cargo test -q --release --offline --test crash_recovery

  for pos in enable disable; do
    echo "== crash-point fuzz sweep (FLEXIO_CRASH_RECOVERY=$pos) =="
    FLEXIO_CRASH_RECOVERY="$pos" \
      FLEXIO_PROP_SEED="${FLEXIO_PROP_SEED:-0xf1e810}" \
      PROPTEST_CASES="${PROPTEST_CASES:-512}" \
      cargo test -q --release --offline --test workload_fuzz crash_point_fuzz
  done

  # Scale leg: the heavier 4096-rank and 16384-rank collective
  # write/read smokes (byte-identity + phase-sum invariants).
  echo "== 4096/16384-rank scale smoke (tests/scale_smoke.rs, ignored set) =="
  cargo test -q --release --offline --test scale_smoke -- --ignored
fi

echo "== tier-1 verification passed =="
