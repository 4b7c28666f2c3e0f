#!/usr/bin/env bash
# Tier-1 gate: the no-print lint plus the fast suite exactly as CI runs
# it, then the opt-in fault-injection drills (crash/resume end-to-end;
# excluded from the default run by the `-m 'not faults'` addopts in
# pyproject.toml) and the opt-in benchmarks (each refreshes its BENCH
# json at the repo root).
#
#   tools/run_tier1.sh                 # lints + fast suite only
#   tools/run_tier1.sh --faults        # ... + fault drills
#   tools/run_tier1.sh --bench-obs     # ... + tracing-overhead benchmark
#   tools/run_tier1.sh --bench-obs-mp  # ... + cross-process tracing overhead
#   tools/run_tier1.sh --bench-retrieval  # ... + 100k retrieval benchmark
#   tools/run_tier1.sh --bench-lifecycle  # ... + hot-swap lifecycle benchmark
#   tools/run_tier1.sh --bench-mp      # ... + multi-process serving benchmark
#   tools/run_tier1.sh --bench-tenant  # ... + multi-tenant serving benchmark
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src

python tools/check_no_print.py
python tools/check_api.py
python -m pytest -x -q

for arg in "$@"; do
    case "$arg" in
        --faults)
            echo "== fault-injection drills =="
            python -m pytest -q -m faults
            ;;
        --bench-obs)
            echo "== tracing overhead benchmark (writes BENCH_obs.json) =="
            python -m pytest -q benchmarks/test_obs_overhead.py
            ;;
        --bench-obs-mp)
            echo "== cross-process tracing overhead (merges into BENCH_obs.json) =="
            python -m pytest -q benchmarks/test_obs_mp_overhead.py
            ;;
        --bench-retrieval)
            echo "== retrieval-at-scale benchmark (writes BENCH_retrieval.json) =="
            python -m pytest -q benchmarks/test_retrieval.py
            ;;
        --bench-lifecycle)
            echo "== lifecycle hot-swap benchmark (writes BENCH_lifecycle.json) =="
            python -m pytest -q benchmarks/test_lifecycle.py
            ;;
        --bench-mp)
            echo "== multi-process serving benchmark (writes BENCH_mp.json) =="
            python -m pytest -q benchmarks/test_mp_serving.py
            ;;
        --bench-tenant)
            echo "== multi-tenant serving benchmark (writes BENCH_tenant.json) =="
            python -m pytest -q benchmarks/test_tenant_serving.py
            ;;
        *)
            echo "unknown flag: $arg (expected --faults, --bench-obs, --bench-obs-mp, --bench-retrieval, --bench-lifecycle, --bench-mp and/or --bench-tenant)" >&2
            exit 2
            ;;
    esac
done
