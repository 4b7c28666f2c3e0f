"""One benchmark for the linking request path.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload interactive|burst|backlog \
        --seed N --seconds S --trace 0|1

The first run builds and caches the model (see ``build.py``).  Every run
then computes reference rankings in-process on the runtime-encoding
path, runs the workload, checks every answer against the reference,
and prints a report followed by one JSON line: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics (the
window is then split into an untraced half, which gives the layer
means, and a traced half, which gives span self times and the tracing
overhead).  See ``perfbench/README.md`` for every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from typing import Any, Dict, List

import common

WORKLOADS = ("interactive", "burst", "backlog")
#: A run whose load generator sent this late (p99) measured itself, not
#: the server; it is invalid and reports nothing.
MAX_LATENESS_P99_MS = 20.0

E2E_UNITS = {
    "setup_s": "s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "queries_per_s": "1/s",
    "slo_attainment": "ratio",
    "success_rate": "ratio",
    "accuracy_at_1": "ratio",
    "mrr": "ratio",
    "mem_mb": "MB",
}

LAYER_UNITS = {
    "server.http_ms": "ms",
    "client.conn_wait_ms": "ms",
    "batcher.wait_ms": "ms",
    "batcher.batch_size": "count",
    "frontend.queue_wait_ms": "ms",
    "frontend.queue_wait_p99_ms": "ms",
    "frontend.fused_batch_size": "count",
    "frontend.shed_share": "ratio",
    "procpool.decode_ms": "ms",
    "procpool.ipc_ms": "ms",
    "linker.or_ms": "ms",
    "linker.cr_ms": "ms",
    "linker.ed_ms": "ms",
    "linker.rt_ms": "ms",
    "linker.ed_share": "ratio",
    "linker.candidates_per_query": "count",
    "rewriter.rewrites_per_query": "count",
    "ed.rows_per_call": "count",
    "ed.scored_share": "ratio",
    "setup.load_pipeline_s": "s",
    "setup.load_artifact_s": "s",
    "setup.warm_s": "s",
    "loadgen.lateness_p99_ms": "ms",
    "layers.remainder_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.client_self_ms": "ms",
    "trace.http_self_ms": "ms",
    "trace.service_self_ms": "ms",
    "trace.queue_self_ms": "ms",
    "trace.ipc_self_ms": "ms",
    "trace.worker_self_ms": "ms",
    "trace.or_self_ms": "ms",
    "trace.cr_self_ms": "ms",
    "trace.ed_self_ms": "ms",
    "trace.rt_self_ms": "ms",
    "trace.other_self_ms": "ms",
    "trace.joined_share": "ratio",
}


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _median_time(function, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        function()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def end_to_end(outcome: Dict[str, Any], gold: List[str]) -> Dict[str, float]:
    latencies = outcome["latencies_ms"]
    accuracy, mrr = common.quality(outcome["first_hits"], gold)
    return {
        "setup_s": outcome["setup_s"],
        "p50_ms": statistics.median(latencies),
        "tail_ms": common.percentile(latencies, common.tail_percentile(len(latencies))),
        "queries_per_s": outcome["queries_ok"] / outcome["window_s"],
        "slo_attainment": outcome["slo_ok"] / outcome["attempted"],
        "success_rate": 1.0 - outcome["failed"] / outcome["attempted"],
        "accuracy_at_1": accuracy,
        "mrr": mrr,
        "mem_mb": outcome["mem_mb"],
    }


def accounting_table(outcome: Dict[str, Any]) -> List[str]:
    """Per-layer means next to the end-to-end mean, remainder included."""
    total = outcome["e2e_mean_ms"]
    unit = "batch" if outcome["workload"]["unit"] == "query" else "request"
    lines = [f"layer accounting (mean ms per {unit}; end-to-end mean {total:.3f} ms)"]
    explained = 0.0
    for name, value, additive in outcome["accounting"]:
        share = value / total if total else 0.0
        lines.append(f"  {name:<48} {value:10.3f}  {share:7.1%}")
        if additive:
            explained += value
    remainder = total - explained
    outcome["layers"]["layers.remainder_ms"] = remainder
    lines.append(
        f"  {'unexplained remainder':<48} {remainder:10.3f}  "
        f"{(remainder / total if total else 0.0):7.1%}"
    )
    return lines


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not common.source_present():
        print(
            f"error: {common.SRC / 'repro'} not found; run from the root of a "
            "checkout of the program",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    common.use_checkout_source()
    import build

    digest = common.source_digest()
    build_dir = build.ensure_build(digest)
    texts, gold = build.load_queries(build_dir)

    from repro import api

    fingerprint, reference = build.reference_rankings(build_dir, texts)
    gc.collect()

    traced = bool(args.trace)
    if args.workload == "backlog":
        import backlog

        outcome = backlog.run(build_dir, texts, reference, args.seed, args.seconds, traced)
    else:
        import serve

        outcome = serve.run(
            args.workload, build_dir, texts, reference, args.seed, args.seconds, traced
        )

    e2e = end_to_end(outcome, gold)
    lines = accounting_table(outcome)
    layer_metrics = {name: 0.0 for name in LAYER_UNITS}
    layer_metrics.update(outcome["layers"])
    layer_metrics["setup.warm_s"] = outcome["setup.warm_s"]
    if traced:
        layer_metrics.update(outcome["trace_metrics"])
        layer_metrics["trace.overhead_ms"] = outcome["trace.overhead_ms"]
        layer_metrics["setup.load_pipeline_s"] = _median_time(
            lambda: api.load_pipeline(str(build_dir / "model"), verify=True)
        )
        layer_metrics["setup.load_artifact_s"] = _median_time(
            lambda: api.load_artifact(str(build_dir / "artifact"))
        )

    # Operations outside the timed window (the traced half, the untimed
    # sweep over queries the window missed) are checked all the same.
    attempted = outcome["attempted"] + outcome.get("extra_attempted", 0)
    failed = outcome["failed"] + outcome.get("extra_failed", 0)
    env = common.environment(args.seed, fingerprint, digest)
    tail_q = common.tail_percentile(len(outcome["latencies_ms"]))
    lateness = layer_metrics["loadgen.lateness_p99_ms"]
    report = {
        "workload": args.workload,
        "settings": outcome["workload"],
        "environment": env,
        "samples": len(outcome["latencies_ms"]),
        "tail_percentile": tail_q,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": e2e,
        "per_layer": layer_metrics,
        "latencies_ms": outcome["latencies_ms"],
    }
    common.OUT_DIR.mkdir(parents=True, exist_ok=True)
    (common.OUT_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2), encoding="utf-8"
    )

    print(f"workload {args.workload}: {json.dumps(outcome['workload'])}")
    print(f"environment: {json.dumps(env)}")
    print(
        f"{attempted} attempted, {failed} failed; "
        f"{len(outcome['latencies_ms'])} latency samples, "
        f"tail_ms is p{100 * tail_q:g}"
    )
    for name, value in e2e.items():
        print(f"  {name:<32} {value:14.6f} {E2E_UNITS[name]}")
    for name in LAYER_UNITS:
        print(f"  {name:<32} {layer_metrics[name]:14.6f} {LAYER_UNITS[name]}")
    for line in lines:
        print(line)
    if lateness > MAX_LATENESS_P99_MS:
        print(
            f"run invalid: the load generator sent {lateness:.1f} ms late at "
            f"p99 (limit {MAX_LATENESS_P99_MS} ms)",
            file=sys.stderr,
        )
        return 3

    # The result line carries the metrics BENCHMARK.json lists; the
    # worker-tier layers appear only in the report above, because only
    # ``burst``, which BENCHMARK.json leaves out, passes through them.
    chosen = layer_metrics if traced else e2e
    units = LAYER_UNITS if traced else E2E_UNITS
    listed = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in listed["per_layer" if traced else "end_to_end"]]
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": chosen[name], "unit": units[name]} for name in names
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
