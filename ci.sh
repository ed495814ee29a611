#!/usr/bin/env bash
# Tier-1 gate: invariants, build, test (including the kernel determinism
# sweep across pool widths), lint. Run from the repo root; every step runs
# offline, because the workspace depends on nothing outside the repo.
set -euo pipefail
cd "$(dirname "$0")"

# A lost wake-up in the worker pool hangs a test run instead of failing
# it, so every test and smoke run below goes under `timeout` (its build
# runs first, untimed): a hang fails CI after these many seconds.
TEST_TIMEOUT=1200
WORKSPACE_TEST_TIMEOUT=2700

# The workspace is std-only: every package in the graph is a path package.
# A registry or git dependency fails this step: offline, `cargo metadata`
# cannot resolve it; where its source is reachable, the package carries a
# `source`, which the step prints.
echo "==> cargo metadata: path packages only"
metadata=$(cargo metadata --offline --format-version 1)
sources=$(printf '%s' "$metadata" | grep -o '"source":"[^"]*"' | sort -u || true)
if [ -n "$sources" ]; then
    echo "packages with a registry or git source:"
    echo "$sources"
    exit 1
fi

# The invariant analyzer is dependency-free, so it gates everything else
# before the first real build. Warnings (missing paper citations) are
# errors in CI; a malformed lint.toml fails before any rule runs, and the
# stats line records the call-graph resolution ratio of the R10 closure.
echo "==> dt-lint --deny-warnings (workspace invariants, DESIGN.md sections 9 and 14)"
cargo run -q -p dt-lint -- --deny-warnings --check-config --stats --quiet

# The benchmark builds the measured crates from their sources through its
# own workspace (`perfbench/shims`); its suite fails when a public API it calls is
# renamed or a dt-tensor module goes unlisted, either of which would make
# the benchmark unbuildable.
echo "==> perfbench suite (offline)"
cargo test --offline --release --manifest-path perfbench/Cargo.toml --no-run
timeout "$TEST_TIMEOUT" cargo test --offline --release --manifest-path perfbench/Cargo.toml

echo "==> cargo fmt --check"
if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --check
else
    echo "rustfmt not installed; skipping the format check"
fi

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test"
cargo test --workspace -q --no-run
timeout "$WORKSPACE_TEST_TIMEOUT" cargo test --workspace -q

# The kernels promise byte-identical output for any pool width; re-run the
# tensor suite (reference-equivalence + proptests, including the windowed
# GEMMs, the mirrored self-Gram, the fused-scan oracle properties of
# quant_props and the run fold's properties), the pool's suite (the
# poll-then-park hand-off), the autograd suite (the column-view oracle:
# views read in place, deltas routed into their base, the single-GEMM
# self-Gram backward, each table's leaf gradients folded as one run), the
# optimizer suite (the pool-split dense Adam pass), the
# serving engine's oracle tests (exact + IVF + fused scan + k-means), the
# latency-histogram and load suites, and the bench helpers at explicit
# widths, and the trainers' bit-identity pins (every method's seeded fit,
# learned propensities and top-K lists in dt-core's method_zoo_props),
# then smoke every bench report through the one dt-bench bin: each
# runs its tiny sweep end to end (quant's f64 bit-identity assert, load's
# generators, queue, batcher and worker arms included) and writes to a
# scratch path under the system temp dir, so the committed BENCH_*.json
# files stay untouched.
WIDTH_SUITES=(-p dt-tensor -p dt-parallel -p dt-autograd -p dt-optim -p dt-serve -p dt-metrics -p dt-cache -p dt-load -p dt-bench)
cargo test -q "${WIDTH_SUITES[@]}" --no-run
cargo test -q -p dt-core --test method_zoo_props --no-run
cargo build -q -p dt-bench --release
for t in 1 2 8; do
    echo "==> cargo test ${WIDTH_SUITES[*]} (DT_NUM_THREADS=$t)"
    DT_NUM_THREADS=$t timeout "$TEST_TIMEOUT" cargo test -q "${WIDTH_SUITES[@]}"
    echo "==> cargo test -p dt-core --test method_zoo_props (DT_NUM_THREADS=$t)"
    DT_NUM_THREADS=$t timeout "$TEST_TIMEOUT" cargo test -q -p dt-core --test method_zoo_props
    for report in kernels train_step ann quant load; do
        echo "==> dt-bench $report --smoke (DT_NUM_THREADS=$t)"
        DT_NUM_THREADS=$t timeout "$TEST_TIMEOUT" cargo run -q -p dt-bench --release -- "$report" --smoke
    done
done

# The bitwise oracles above run under `profile.test`. The build that ships
# is the release profile (`lto = "thin"`, opt-level 3), where the GEMM
# bodies and the scan are inlined into their runtime-dispatched AVX2
# clones differently, so the tensor and autograd suites (kernel oracles,
# the wide-vs-portable tests, the allocator count, the run fold's
# properties, the column-view oracle) run once more against it, with the
# pool's tests (the poll-then-park hand-off's atomics) and the optimizer
# suite (the pool-split dense Adam pass, the lazy-vs-dense Adam oracle).
echo "==> cargo test --release -p dt-tensor -p dt-autograd -p dt-parallel -p dt-optim"
cargo test --release -q -p dt-tensor -p dt-autograd -p dt-parallel -p dt-optim --no-run
timeout "$TEST_TIMEOUT" cargo test --release -q -p dt-tensor -p dt-autograd -p dt-parallel -p dt-optim

echo "==> cargo clippy"
cargo clippy --workspace --all-targets -- -D warnings

echo "ci: all green"
