"""The ``backlog`` workload: offline coding of a query backlog.

``repro.api.load_linker`` with the compiled artifact and the shipped
``LinkerConfig``, then ``repro.api.link_batch`` over the whole query set
in fixed-size batches, pass after pass in a seeded order, until the
window ends.  No HTTP and no queue, so Phase II (ED) does most of the
work and the serving layers none.  ``setup_s`` is the median of the
``load_linker`` calls made before the window and between its slices.
"""

from __future__ import annotations

import gc
import itertools
import os
import random
import statistics
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Sequence

import common

BATCH = 16
#: Latency limit on one batch for ``slo_attainment``.
SLO_MS = 100.0
#: ``load_linker`` calls per run; ``setup_s`` is their median.
SETUPS = 21
PHASES = ("OR", "CR", "ED", "RT")


class Tally:
    """Checks each batch's answers as they arrive and keeps only sums.

    Holding every ``LinkResult`` until the end would grow the heap the
    cyclic collector walks, slowing the run it measures.
    """

    def __init__(self, reference: Dict[int, common.Ranking]) -> None:
        self.reference = reference
        self.latencies_ms: List[float] = []
        self.attempted = self.failed = self.queries_ok = self.slo_ok = 0
        self.first_hits: Dict[int, common.Ranking] = {}
        self.phase_s = dict.fromkeys(PHASES, 0.0)
        self.candidates = self.rewrites = 0

    def add(self, indices: Sequence[int], results: Sequence[Any], seconds: float) -> None:
        self.latencies_ms.append(1000.0 * seconds)
        in_slo = seconds * 1000.0 <= SLO_MS
        for index, result in zip(indices, results):
            self.attempted += 1
            ranking = [(c.cid, c.log_prob) for c in result.ranked]
            self.first_hits.setdefault(index, ranking)
            for phase in PHASES:
                self.phase_s[phase] += result.timing.seconds.get(phase, 0.0)
            self.candidates += len(result.ranked)
            self.rewrites += len(result.rewrites)
            if result.degraded or not common.ranking_matches(
                ranking, self.reference[index]
            ):
                self.failed += 1
                continue
            self.queries_ok += 1
            self.slo_ok += in_slo

    def layers(self) -> Dict[str, float]:
        count = max(self.attempted, 1)
        phases = {phase: 1000.0 * self.phase_s[phase] / count for phase in PHASES}
        total = sum(phases.values())
        return {
            "linker.or_ms": phases["OR"],
            "linker.cr_ms": phases["CR"],
            "linker.ed_ms": phases["ED"],
            "linker.rt_ms": phases["RT"],
            "linker.ed_share": phases["ED"] / total if total else 0.0,
            "linker.candidates_per_query": self.candidates / count,
            "rewriter.rewrites_per_query": self.rewrites / count,
        }


def _order(count: int, seed: int, tag: str) -> Iterator[int]:
    """Query indices in seeded passes over the whole set."""
    rng = random.Random(f"backlog/{seed}/{tag}")
    while True:
        cycle = list(range(count))
        rng.shuffle(cycle)
        yield from cycle


def _measure(link_batch, texts, tally: Tally, order: Iterator[int], seconds) -> float:
    """Link fixed-size batches drawn from ``order`` until ``seconds`` pass;
    returns the window's length."""
    origin = time.perf_counter()
    deadline = origin + seconds
    while time.perf_counter() < deadline:
        indices = list(itertools.islice(order, BATCH))
        queries = [texts[i] for i in indices]
        started = time.perf_counter()
        results = link_batch(queries)
        tally.add(indices, results, time.perf_counter() - started)
    return time.perf_counter() - origin


def _traced(linker, texts, reference, seed, seconds, recorder: common.SpanRecorder):
    """Link with spans: the benchmark's own around ``link_batch`` and the
    rewriter/engine calls on the live objects, plus the program's
    existing linker spans under a root this function opens."""
    from repro import api

    recorder.wrap(linker.rewriter, "rewrite", "rewriter.rewrite")
    recorder.wrap(
        linker.engine, "retrieve", "engine.retrieve",
        lambda args, result: {"candidates": len(result)},
    )
    recorder.wrap(
        linker.engine, "score_batch", "engine.score_batch",
        lambda args, result: {"rows": len(args[0])},
    )
    tracer = api.Tracer(sample_rate=1.0, capacity=1)
    program_traces: List[Dict[str, Any]] = []

    def link_batch(queries: List[str]):
        request_id = f"backlog-{seed}-{len(program_traces)}"
        span = recorder.open("api.link_batch", request_id, queries=len(queries))
        root = tracer.start_trace("bench.link_batch", request_id=request_id)
        with root:
            results = api.link_batch(linker, queries)
        recorder.close(span)
        program_traces.append(api.export_trace(root))
        return results

    tally = Tally(reference)
    _measure(link_batch, texts, tally, _order(len(texts), seed, "traced"), seconds)
    batch_spans = [s for s in recorder.spans if s["name"] == "api.link_batch"]
    totals: Dict[str, float] = {}
    for span, trace_dict in zip(batch_spans, program_traces):
        root = next(s for s in trace_dict["spans"] if s["parent_id"] is None)
        totals["client"] = totals.get("client", 0.0) + (
            span["end"] - span["start"] - root["duration_s"]
        )
        for layer, self_s in common.layer_self_times(trace_dict).items():
            totals[layer] = totals.get(layer, 0.0) + self_s
    rows = [s["tags"]["rows"] for s in recorder.spans if s["name"] == "engine.score_batch"]
    candidates = sum(
        s["tags"]["candidates"] for s in recorder.spans if s["name"] == "engine.retrieve"
    )
    metrics = {
        f"trace.{layer}_self_ms": 1000.0 * seconds / len(batch_spans)
        for layer, seconds in totals.items()
    }
    metrics["trace.joined_share"] = len(program_traces) / len(batch_spans)
    metrics["ed.rows_per_call"] = common.mean(rows)
    metrics["ed.scored_share"] = sum(rows) / candidates if candidates else 0.0
    return tally, metrics, program_traces


def run(
    build: Path,
    texts: Sequence[str],
    reference: Dict[int, common.Ranking],
    seed: int,
    seconds: float,
    traced: bool,
) -> Dict[str, Any]:
    from repro import api

    config = api.LinkerConfig(artifact_dir=str(build / "artifact"))
    setups: List[float] = []

    def set_up():
        gc.collect()
        started = time.perf_counter()
        loaded = api.load_linker(str(build / "model"), config)
        setups.append(time.perf_counter() - started)
        return loaded

    linker = set_up()
    started = time.perf_counter()
    api.link_batch(linker, list(texts[:BATCH]))
    warm_s = time.perf_counter() - started
    span_s = seconds / 2 if traced else seconds
    tally = Tally(reference)
    order = _order(len(texts), seed, "untraced")
    window_s = 0.0
    # The other set-ups are spread over the window, between its slices
    # and outside its time, so their median follows the machine's speed
    # over the whole run rather than at one instant.
    for _ in range(SETUPS - 1):
        window_s += _measure(
            lambda queries: api.link_batch(linker, queries),
            texts, tally, order, span_s / (SETUPS - 1),
        )
        set_up()
    layer_metrics = tally.layers()
    outcome: Dict[str, Any] = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "latencies_ms": tally.latencies_ms,
        "slo_ok": tally.slo_ok,
        "queries_ok": tally.queries_ok,
        "window_s": window_s,
        "first_hits": tally.first_hits,
        "layers": layer_metrics,
        "accounting": [
            (f"linker.{phase.lower()}_ms x {BATCH} queries",
             layer_metrics[f"linker.{phase.lower()}_ms"] * BATCH, True)
            for phase in PHASES
        ],
        "e2e_mean_ms": common.mean(tally.latencies_ms),
        "setup_s": statistics.median(setups),
        "setup.warm_s": warm_s,
        "workload": {"batch": BATCH, "slo_ms": SLO_MS, "unit": "query"},
    }
    if traced:
        recorder = common.SpanRecorder()
        traced_tally, trace_metrics, program_traces = _traced(
            linker, texts, reference, seed, span_s, recorder
        )
        recorder.dump(
            common.OUT_DIR / f"spans-backlog-{seed}.json",
            {"program_traces": program_traces},
        )
        outcome["trace_metrics"] = trace_metrics
        outcome["trace.overhead_ms"] = statistics.median(
            traced_tally.latencies_ms
        ) - statistics.median(tally.latencies_ms)
        outcome["extra_attempted"] = traced_tally.attempted
        outcome["extra_failed"] = traced_tally.failed
    outcome["mem_mb"] = common.pss_mb(os.getpid())
    return outcome
