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

if [[ "$quick" -eq 0 ]]; then
    run cargo build --release
fi
run cargo test --workspace -q

# Determinism gate: the parallel-path tests must pass both pinned to one
# thread and at the default thread count — the fixed-chunk reductions make
# parallel log-likelihoods bit-identical regardless of RAYON_NUM_THREADS.
run env RAYON_NUM_THREADS=1 cargo test -q -p phylo parallel::
run cargo test -q -p phylo parallel::

# Inference-farm smoke: work-stealing mechanics under injected faults
# (panics, job failures, worker deaths), bootstrap worker-count bit
# invariance, and JSONL metrics validity.
run cargo run -p bench --bin throughput_study -- --smoke

# Fault-injection smoke: inert-plan bit-equality, deterministic fault
# replay, and checkpoint kill-and-resume bit-identity, end to end.
run cargo run -p bench --bin fault_study -- --smoke

# Observability smoke: per-scheduler traces of one SPR round, trace-derived
# utilization vs SimStats cross-check, and export well-formedness — then an
# independent check that the emitted Chrome trace parses as JSON.
run cargo run -p bench --bin profile_study -- --smoke
trace_dir="$(mktemp -d)"
# --no-artifact: CI must not overwrite the committed BENCH_profile.json
# baseline with quick-workload numbers.
run cargo run -p bench --bin profile_study -- --quick --out "$trace_dir" --no-artifact
for f in "$trace_dir"/*.trace.json; do
    echo "==> python3 json.load $f"
    python3 -c "import json,sys; json.load(open(sys.argv[1])); print('valid JSON:', sys.argv[1])" "$f"
done
rm -rf "$trace_dir"

# Wall-clock metrics smoke: instrumented farm batch, registry/FarmStats
# coherence, Prometheus + JSONL export validity after a filesystem round
# trip. Then validate the committed benchmark baselines and run the
# regression gate in advisory mode (wall-clock numbers on shared CI
# machines inform, they don't block).
metrics_dir="$(mktemp -d)"
run cargo run -p bench --bin metrics_study -- --smoke --out "$metrics_dir"
rm -rf "$metrics_dir"
# (BENCH_dispatch.json is Criterion JSONL, not an envelope — not listed.)
for f in BENCH_metrics.json BENCH_throughput.json BENCH_profile.json; do
    [[ -f "$f" ]] || continue
    echo "==> python3 json.load $f"
    python3 -c "import json,sys; json.load(open(sys.argv[1])); print('valid JSON:', sys.argv[1])" "$f"
done
if [[ -f BENCH_metrics.json ]]; then
    run scripts/bench_gate --advisory
fi

# Service-tier smoke: multi-tenant open-loop load over the real wire
# protocol with exactly-once verification and a validated /metrics scrape,
# then an independent Python parse of the committed BENCH_serve.json
# baseline and an advisory regression gate over a fresh measurement
# (serve_jobs_per_sec throughput, serve_e2e_ns_p99 latency).
run cargo run -p bench --bin serve_study -- --smoke
if [[ -f BENCH_serve.json ]]; then
    echo "==> python3 json.load BENCH_serve.json"
    python3 -c "import json,sys; json.load(open(sys.argv[1])); print('valid JSON:', sys.argv[1])" BENCH_serve.json
    serve_dir="$(mktemp -d)"
    # --no-artifact: never overwrite the committed baseline from CI.
    echo "==> cargo run --release -q -p bench --bin serve_study -- --no-artifact --format json > current.json"
    cargo run --release -q -p bench --bin serve_study -- --no-artifact --format json \
        > "$serve_dir/current.json"
    run scripts/bench_gate --advisory --baseline BENCH_serve.json --current "$serve_dir/current.json"
    rm -rf "$serve_dir"
fi

# Chaos smoke: deterministic wire fault injection (drops, truncation,
# stalls), a mid-stream graceful drain + restart on a fresh port, and the
# triple exactly-once cross-check (client view vs journal-replayed service
# view vs per-life farm accounting), plus cancellation and per-job
# deadlines. Then validate the committed BENCH_chaos.json baseline and run
# an advisory regression gate over a fresh measurement.
run cargo run -p bench --bin chaos_study -- --smoke
if [[ -f BENCH_chaos.json ]]; then
    echo "==> python3 json.load BENCH_chaos.json"
    python3 -c "import json,sys; json.load(open(sys.argv[1])); print('valid JSON:', sys.argv[1])" BENCH_chaos.json
    chaos_dir="$(mktemp -d)"
    # --no-artifact: never overwrite the committed baseline from CI.
    echo "==> cargo run --release -q -p bench --bin chaos_study -- --no-artifact --format json > current.json"
    cargo run --release -q -p bench --bin chaos_study -- --no-artifact --format json \
        > "$chaos_dir/current.json"
    run scripts/bench_gate --advisory --baseline BENCH_chaos.json --current "$chaos_dir/current.json"
    rm -rf "$chaos_dir"
fi

# Tracing smoke: the serve harness run tracing-off then tracing-on with
# throughput tolerance, integer-exact span/histogram coherence, exemplar
# linkage, lnL bit-identity across the two phases, and the live /jobs,
# /trace/<job>, /healthz, /readyz routes. Then a schema check of the
# committed BENCH_trace.json baseline and an advisory regression gate over
# a fresh measurement.
run cargo run -p bench --bin trace_study -- --smoke
if [[ -f BENCH_trace.json ]]; then
    echo "==> python3 schema check BENCH_trace.json"
    python3 - BENCH_trace.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema_version"] == 1, f"unexpected schema_version: {doc['schema_version']}"
metrics = doc["metrics"]
required = [
    "trace_jobs_per_sec",
    "trace_jobs_per_sec_untraced",
    "trace_spans_per_job",
]
missing = [name for name in required if name not in metrics]
assert not missing, f"BENCH_trace.json is missing metrics: {missing}"
assert all(metrics[name] > 0 for name in required), "trace metrics must be positive"
assert metrics["trace_overhead_pct"] <= 3.0, \
    f"tracing overhead {metrics['trace_overhead_pct']}% exceeds the 3% budget"
print("schema OK:", sys.argv[1])
EOF
    trace_bench_dir="$(mktemp -d)"
    # --no-artifact: never overwrite the committed baseline from CI.
    echo "==> cargo run --release -q -p bench --bin trace_study -- --no-artifact --format json > current.json"
    cargo run --release -q -p bench --bin trace_study -- --no-artifact --format json \
        > "$trace_bench_dir/current.json"
    run scripts/bench_gate --advisory --baseline BENCH_trace.json --current "$trace_bench_dir/current.json"
    rm -rf "$trace_bench_dir"
fi

# Kernel smoke: bit-identity of every kernel width against the scalar
# reference (including a fixture that fires the underflow rescale), the
# reuse-vs-full-recompute SPR cross-check, and an envelope round trip.
# Then a schema check of the committed BENCH_kernels.json baseline — it
# must carry a patterns-per-sec headline for every kernel width plus the
# SPR-round p99 — and an advisory regression gate over a fresh quick
# measurement (wall-clock numbers on shared CI machines inform, not block).
run cargo run -p bench --bin kernel_study -- --smoke
if [[ -f BENCH_kernels.json ]]; then
    echo "==> python3 schema check BENCH_kernels.json"
    python3 - BENCH_kernels.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema_version"] == 1, f"unexpected schema_version: {doc['schema_version']}"
metrics = doc["metrics"]
required = ["newview_%s_patterns_per_sec" % k for k in ("scalar", "vector", "wide4", "wide8")]
required.append("spr_round_p99")
missing = [name for name in required if name not in metrics]
assert not missing, f"BENCH_kernels.json is missing metrics: {missing}"
assert all(metrics[name] > 0 for name in required), "kernel metrics must be positive"
print("schema OK:", sys.argv[1])
EOF
    kernel_dir="$(mktemp -d)"
    # --no-artifact: never overwrite the committed baseline from CI.
    echo "==> cargo run --release -q -p bench --bin kernel_study -- --quick --no-artifact --format json > current.json"
    cargo run --release -q -p bench --bin kernel_study -- --quick --no-artifact --format json \
        > "$kernel_dir/current.json"
    run scripts/bench_gate --advisory --baseline BENCH_kernels.json --current "$kernel_dir/current.json"
    rm -rf "$kernel_dir"
fi

# Large-alignment scaling smoke: compress/expand, PHYLIP and checkpoint
# round trips, memory-budget admission, and a compression-linearity guard
# (4x sites must not cost quadratic time). Then a schema check of the
# committed BENCH_scale.json baseline — the gated headline metrics must be
# present and positive — and an advisory regression gate over a fresh
# quick measurement at the same reference tier.
run cargo run -p bench --bin scale_study -- --smoke
if [[ -f BENCH_scale.json ]]; then
    echo "==> python3 schema check BENCH_scale.json"
    python3 - BENCH_scale.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema_version"] == 1, f"unexpected schema_version: {doc['schema_version']}"
metrics = doc["metrics"]
required = [
    "compress_sites_per_sec",
    "load_sites_per_sec",
    "newview_patterns_per_sec",
    "checkpoint_write_p99",
]
missing = [name for name in required if name not in metrics]
assert not missing, f"BENCH_scale.json is missing metrics: {missing}"
assert all(metrics[name] > 0 for name in required), "scale metrics must be positive"
print("schema OK:", sys.argv[1])
EOF
    scale_dir="$(mktemp -d)"
    # --no-artifact: never overwrite the committed baseline from CI.
    echo "==> cargo run --release -q -p bench --bin scale_study -- --quick --no-artifact --format json > current.json"
    cargo run --release -q -p bench --bin scale_study -- --quick --no-artifact --format json \
        > "$scale_dir/current.json"
    run scripts/bench_gate --advisory --baseline BENCH_scale.json --current "$scale_dir/current.json"
    rm -rf "$scale_dir"
fi

# Benchmark gate: the standalone `benchmark/` package (its own workspace and
# lock file, so the root `cargo test --workspace` never sees it) — its unit
# tests, then its smoke pass: all seven workloads at reduced sizes with every
# check on (likelihood re-scored under the baseline config, the hand-replayed
# search bit-equal to `run_inference`, farm batch 0 bit-equal on one worker,
# served jobs settled exactly once). A failed check exits non-zero, which
# `set -e` turns into a failed CI run.
run cargo test --release --offline --manifest-path benchmark/Cargo.toml
run cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run --smoke

# Migration gate: the deprecated infer_ml_tree_* shims and bench::arg_value
# must not be used anywhere in shipping code (bins, examples, libs).
# Equivalence tests opt in explicitly with #[allow(deprecated)].
run cargo clippy -q --workspace --bins --examples -- -D deprecated

echo
echo "ci: all checks passed"
