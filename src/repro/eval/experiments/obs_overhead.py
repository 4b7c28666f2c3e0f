"""Tracing-overhead benchmark — what instrumentation costs when off.

The linker and serving path call :func:`repro.obs.trace.span` on every
request whether or not anyone is tracing; the design promise (and the
acceptance gate in ``BENCH_obs.json``) is that with sampling off those
call sites cost one ContextVar read each — ≤1% of p50 link latency.
:func:`run_obs_overhead` measures the single-process linker;
:func:`run_obs_overhead_mp` applies the same paired-difference design
to the multi-process tier, where sampling off must additionally keep
the worker pipes span-free (``trace_ids=None`` on the wire, no
worker-side tracer, no trace payload in replies).
The single-process runner measures three modes over the identical
query stream on one warmed pipeline:

* ``untraced``  — ``linker.link`` with no root span anywhere (the
  instrumented no-op fast path, today's floor);
* ``traced_off``  — each link wrapped in a root from a
  ``Tracer(sample_rate=0.0)``: the sampling decision runs and returns
  the no-op singleton (the serving path with tracing disabled);
* ``traced_on``  — ``sample_rate=1.0``: full span trees recorded into
  the ring buffer (the price of actually looking).

The true sampling-off cost (~a few µs) is far below this machine's
run-to-run jitter on a ~ms link call, so the headline number is a
*paired* estimate: every query is timed in all three modes
back-to-back (rotating which mode goes first) and the overhead is the
median of the per-pair differences ``traced_x − untraced``, which
cancels drift (CPU frequency, allocator state, scheduler) that a
difference of independently-measured p50s would absorb.  GC is paused
during timed regions.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Dict, List

from repro.eval.experiments.scale import SMALL, ExperimentScale
from repro.eval.harness import build_pipeline
from repro.eval.reporting import emit, format_table
from repro.obs.trace import Tracer
from repro.utils.rng import derive_rng, ensure_rng

MODES = ("untraced", "traced_off", "traced_on")


def _timed_link_seconds(linker, query, k, tracer) -> float:
    if tracer is None:
        started = time.perf_counter()
        linker.link(query, k=k)
        return time.perf_counter() - started
    started = time.perf_counter()
    with tracer.start_trace("bench.link", query=query):
        linker.link(query, k=k)
    return time.perf_counter() - started


def run_obs_overhead(
    scale: ExperimentScale = SMALL,
    seed: int = 2018,
    k: int = 10,
    queries_per_trial: int = 60,
    trials: int = 8,
    dataset: str = "hospital-x-like",
    verbose: bool = True,
) -> Dict[str, object]:
    """Measure span-site overhead; returns the JSON-ready report.

    ``overhead_off_pct`` is the headline number: the median paired
    penalty of the sampling-off serving path over the untraced floor,
    as a percentage of p50 link latency.
    """
    generator = ensure_rng(seed)
    bundle = scale.dataset(dataset, rng=derive_rng(generator, dataset))
    pipeline = build_pipeline(
        bundle,
        model_config=scale.model_config(),
        training_config=scale.training_config(),
        cbow_config=scale.cbow_config(),
        rng=derive_rng(generator, dataset, "pipeline"),
    )
    linker = pipeline.linker
    linker.warm_cache()
    queries = [
        bundle.queries[index % len(bundle.queries)].text
        for index in range(queries_per_trial)
    ]
    tracer_off = Tracer(sample_rate=0.0, capacity=1)
    tracer_on = Tracer(sample_rate=1.0, capacity=8)
    tracers = {"untraced": None, "traced_off": tracer_off, "traced_on": tracer_on}

    # One untimed pass so first-touch costs (lazy caches, branch
    # warm-up) are paid before any mode is measured.
    for query in queries:
        linker.link(query, k=k)

    samples: Dict[str, List[float]] = {mode: [] for mode in MODES}
    diffs: Dict[str, List[float]] = {
        mode: [] for mode in MODES if mode != "untraced"
    }
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for trial in range(trials):
            for index, query in enumerate(queries):
                # Time all three modes back-to-back per query, rotating
                # which goes first, so each paired difference sees the
                # same instantaneous machine state.
                offset = (trial + index) % len(MODES)
                timed = {
                    mode: _timed_link_seconds(linker, query, k, tracers[mode])
                    for mode in MODES[offset:] + MODES[:offset]
                }
                for mode in MODES:
                    samples[mode].append(timed[mode])
                for mode in diffs:
                    diffs[mode].append(timed[mode] - timed["untraced"])
    finally:
        if gc_was_enabled:
            gc.enable()
    p50 = {mode: statistics.median(samples[mode]) for mode in MODES}
    floor = max(p50["untraced"], 1e-12)
    report: Dict[str, object] = {
        "dataset": dataset,
        "scale": scale.name,
        "seed": seed,
        "k": k,
        "queries_per_trial": len(queries),
        "trials": trials,
        "pairs": len(diffs["traced_off"]),
        "p50_ms": {mode: p50[mode] * 1e3 for mode in MODES},
        "overhead_off_pct": (
            statistics.median(diffs["traced_off"]) / floor * 100.0
        ),
        "overhead_on_pct": (
            statistics.median(diffs["traced_on"]) / floor * 100.0
        ),
        "traces_recorded": tracer_on.stats()["finished"],
    }
    if verbose:
        rows = [[mode, round(p50[mode] * 1e3, 4)] for mode in MODES]
        emit(
            format_table(
                ["mode", "p50 (ms)"],
                rows,
                title=(
                    f"Tracing overhead, {dataset} k={k} "
                    f"(off {report['overhead_off_pct']:+.2f}%, "
                    f"on {report['overhead_on_pct']:+.2f}%)"
                ),
            )
        )
    return report


def _timed_request_seconds(service, query, k, tracer) -> float:
    if tracer is None:
        started = time.perf_counter()
        service.link_many([query], k=k)
        return time.perf_counter() - started
    started = time.perf_counter()
    with tracer.start_trace("bench.request", query=query):
        service.link_many([query], k=k)
    return time.perf_counter() - started


def run_obs_overhead_mp(
    scale: ExperimentScale = SMALL,
    seed: int = 2018,
    k: int = 10,
    queries_per_trial: int = 30,
    trials: int = 4,
    workers: int = 2,
    dataset: str = "hospital-x-like",
    artifact_dir: str | None = None,
    verbose: bool = True,
) -> Dict[str, object]:
    """Paired span-site overhead on the multi-process serving tier.

    Same three modes and pairing discipline as :func:`run_obs_overhead`
    but each timed unit is a full front-end request through
    :class:`~repro.serving.service.ProcPoolLinkingService` — admission
    queue, fusion window, worker pipe round-trip, Phase-II decode in a
    forked worker.  ``traced_on`` additionally pays the cross-process
    trace transport (worker-side span recording, ``export_trace`` over
    the reply pipe, parent-side ``graft``); ``traced_off`` must not —
    the dispatcher sends ``trace_ids=None`` and workers never build a
    tracer.  ``overhead_off_pct`` is the gated headline.
    """
    import tempfile
    from dataclasses import replace

    from repro.core.config import ServingConfig
    from repro.core.linker import NeuralConceptLinker
    from repro.engine.compile import write_artifact
    from repro.serving.service import ProcPoolLinkingService

    generator = ensure_rng(seed)
    bundle = scale.dataset(dataset, rng=derive_rng(generator, dataset))
    pipeline = build_pipeline(
        bundle,
        model_config=scale.model_config(),
        training_config=scale.training_config(),
        cbow_config=scale.cbow_config(),
        rng=derive_rng(generator, dataset, "pipeline"),
    )
    directory = artifact_dir or tempfile.mkdtemp(prefix="repro-obs-mp-")
    # The pipeline's linker already encoded every concept in memory:
    # write that artifact for the workers rather than encode again.
    write_artifact(directory, pipeline.model, pipeline.linker.engine.artifact)
    worker_linker = NeuralConceptLinker(
        pipeline.model,
        bundle.ontology,
        replace(
            pipeline.linker.config,
            artifact_dir=str(directory),
            mmap_artifact=True,
        ),
        kb=bundle.kb,
        word_vectors=pipeline.word_vectors,
    )
    queries = [
        bundle.queries[index % len(bundle.queries)].text
        for index in range(queries_per_trial)
    ]
    config = ServingConfig(workers=workers, warm_on_start=True)
    service = ProcPoolLinkingService(
        lambda: worker_linker, bundle.ontology, config
    )
    service.start(wait=True)
    tracer_off = Tracer(sample_rate=0.0, capacity=1)
    tracer_on = Tracer(sample_rate=1.0, capacity=8)
    tracers = {
        "untraced": None, "traced_off": tracer_off, "traced_on": tracer_on
    }
    samples: Dict[str, List[float]] = {mode: [] for mode in MODES}
    diffs: Dict[str, List[float]] = {
        mode: [] for mode in MODES if mode != "untraced"
    }
    gc_was_enabled = gc.isenabled()
    try:
        # Untimed warm-up: fork start-up, pipe buffers, worker-side
        # first-touch decode paths.
        for query in queries:
            service.link_many([query], k=k)
        gc.collect()
        gc.disable()
        try:
            for trial in range(trials):
                for index, query in enumerate(queries):
                    offset = (trial + index) % len(MODES)
                    timed = {
                        mode: _timed_request_seconds(
                            service, query, k, tracers[mode]
                        )
                        for mode in MODES[offset:] + MODES[:offset]
                    }
                    for mode in MODES:
                        samples[mode].append(timed[mode])
                    for mode in diffs:
                        diffs[mode].append(timed[mode] - timed["untraced"])
        finally:
            if gc_was_enabled:
                gc.enable()
    finally:
        service.stop()
    p50 = {mode: statistics.median(samples[mode]) for mode in MODES}
    floor = max(p50["untraced"], 1e-12)
    report: Dict[str, object] = {
        "dataset": dataset,
        "scale": scale.name,
        "seed": seed,
        "k": k,
        "workers": workers,
        "queries_per_trial": len(queries),
        "trials": trials,
        "pairs": len(diffs["traced_off"]),
        "p50_ms": {mode: p50[mode] * 1e3 for mode in MODES},
        "overhead_off_pct": (
            statistics.median(diffs["traced_off"]) / floor * 100.0
        ),
        "overhead_on_pct": (
            statistics.median(diffs["traced_on"]) / floor * 100.0
        ),
        "traces_recorded": tracer_on.stats()["finished"],
    }
    if verbose:
        rows = [[mode, round(p50[mode] * 1e3, 4)] for mode in MODES]
        emit(
            format_table(
                ["mode", "p50 (ms)"],
                rows,
                title=(
                    f"Tracing overhead (procpool), {dataset} "
                    f"workers={workers} "
                    f"(off {report['overhead_off_pct']:+.2f}%, "
                    f"on {report['overhead_on_pct']:+.2f}%)"
                ),
            )
        )
    return report
