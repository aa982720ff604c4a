#!/usr/bin/env bash
# Full local CI gate. Run from anywhere inside the repo.
#
#   scripts/ci.sh          # tier-1 + lints
#   scripts/ci.sh --quick  # skip the release build (debug test run only)
#
# Tier-1 (the driver's acceptance gate) is the release build plus the full
# test suite; formatting and clippy are held to zero warnings on top.

set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

quick=0
if [[ "${1:-}" == "--quick" ]]; then
    quick=1
fi

run() {
    echo
    echo "==> $*"
    "$@"
}

run cargo fmt --check
run cargo clippy --workspace --all-targets -- -D warnings
# Deletions leave dangling intra-doc links; rustdoc is what notices.
run env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# `--locked`: a dependency change whose `Cargo.lock` edit was not committed
# fails here instead of drifting.
if [[ "$quick" -eq 0 ]]; then
    run cargo build --release --locked
fi
run cargo test --workspace -q

# Which lane tier the kernels dispatch to on this host — so a log says
# whether the suites above and below exercised the AVX2 path or the portable
# one (`dispatch_follows_the_probe` holds the dispatch to it).
run cargo test -q -p phylo --lib likelihood::kernels::tests::dispatch_follows_the_probe -- --nocapture

# The kernels are arithmetic and `unsafe`: optimized builds reorder and
# vectorize what debug builds run literally, so the bit-identity suites run
# again in release.
if [[ "$quick" -eq 0 ]]; then
    run cargo test --release -q -p phylo likelihood::
    run cargo test --release -q --test search_golden --test search_determinism --test bootstrap_compaction
fi

# Determinism gate: the parallel-path tests must pass pinned to one, two and
# three stripes and at the default thread count — stripe ownership and the
# fixed-block reductions make parallel log-likelihoods bit-identical (and
# equal to the recorded pins) regardless of RAYON_NUM_THREADS.
run env RAYON_NUM_THREADS=1 cargo test -q -p phylo parallel::
run env RAYON_NUM_THREADS=2 cargo test -q -p phylo parallel::
run cargo test -q -p phylo parallel::
run env RAYON_NUM_THREADS=3 cargo test -q -p phylo parallel::

# Smoothing-order convergence on the 200- and 500-taxon trees, which the
# debug run above skips for time.
if [[ "$quick" -eq 0 ]]; then
    run cargo test --release -q --test smoothing_order
fi

# Paper regeneration: every table, the figure and the profile on the reduced
# workload, then on the full ALN42 capture with its stdout diffed against the
# recorded tables (every line is simulated cycles, deterministic), then the
# per-scheduler traces of one SPR round — each emitted Chrome trace re-parsed
# by python3, the one parser here we did not write.
run cargo run -q -p bench --bin paper -- all --quick
if [[ "$quick" -eq 0 ]]; then
    run diff -u tests/data/golden/paper_all.txt <(cargo run -q --release -p bench --bin paper -- all)
fi
trace_dir="$(mktemp -d)"
run cargo run -q -p bench --bin paper -- traces --quick --out "$trace_dir"
for f in "$trace_dir"/*.trace.json; do
    run python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$f"
done
rm -rf "$trace_dir"

# Large-alignment smoke: compress/expand, PHYLIP and checkpoint round trips,
# memory-budget admission, and the compression-linearity guard.
run cargo run -q -p bench --bin scale_study -- --smoke

# Benchmark gate: the standalone `benchmark/` package (its own workspace and
# lock file, so the root `cargo test --workspace` never sees it) — its unit
# tests, then its smoke pass: all seven workloads at reduced sizes with every
# check on. A failed check exits non-zero, which `set -e` turns into a failed
# CI run.
run cargo test --release --offline --manifest-path benchmark/Cargo.toml
run cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run --smoke

echo
echo "ci: all checks passed"
