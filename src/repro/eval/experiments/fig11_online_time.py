"""Figure 11 (Appendix B.1) — online linking time analysis.

Decomposes per-query online linking time into the paper's four parts —
out-of-vocabulary replacement (OR), candidate retrieval (CR),
encode-decode (ED), ranking (RT) — and measures how the total and the
parts grow (a) with the candidate count k and (b) with query length
|q|.

Expected shapes: time grows with k (driven by ED — more candidates to
decode) sub-linearly once the keyword matcher runs out of matching
concepts; time grows with |q| (CR examines more postings, ED decodes
more words); hospital-x is slower than MIMIC because ICD-10-style
canonical descriptions are longer.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.eval.experiments.scale import DEFAULT, ExperimentScale
from repro.eval.harness import NclPipeline, build_pipeline
from repro.eval.reporting import emit, format_table
from repro.utils.rng import derive_rng, ensure_rng
from repro.utils.timing import TimingBreakdown

K_GRID = (10, 20, 30, 40, 50)
LENGTH_GRID = (1, 2, 3, 4, 5, 6)
PHASES = ("OR", "CR", "ED", "RT")
DATASETS = ("hospital-x-like", "mimic-iii-like")


def _mean_breakdown(breakdowns: Sequence[TimingBreakdown]) -> Dict[str, float]:
    totals: Dict[str, float] = {phase: 0.0 for phase in PHASES}
    for breakdown in breakdowns:
        for phase in PHASES:
            totals[phase] += breakdown.seconds.get(phase, 0.0)
    count = max(len(breakdowns), 1)
    means = {phase: totals[phase] / count for phase in PHASES}
    means["total"] = sum(means.values())
    return means


def _pipeline_for(scale: ExperimentScale, name: str, generator) -> NclPipeline:
    dataset = scale.dataset(name, rng=derive_rng(generator, name))
    return build_pipeline(
        dataset,
        model_config=scale.model_config(),
        training_config=scale.training_config(),
        cbow_config=scale.cbow_config(),
        rng=derive_rng(generator, name, "pipeline"),
    )


def run_vary_k(
    scale: ExperimentScale = DEFAULT,
    seed: int = 2018,
    k_grid: Sequence[int] = K_GRID,
    queries_per_point: int = 60,
    datasets: Sequence[str] = DATASETS,
    verbose: bool = True,
) -> Dict[str, Dict[int, Dict[str, float]]]:
    """Figure 11(a,b): per-phase mean seconds per query, per k."""
    generator = ensure_rng(seed)
    results: Dict[str, Dict[int, Dict[str, float]]] = {}
    for name in datasets:
        pipeline = _pipeline_for(scale, name, generator)
        pipeline.linker.warm_cache()
        queries = pipeline.dataset.queries[:queries_per_point]
        per_k: Dict[int, Dict[str, float]] = {}
        for k in k_grid:
            breakdowns = [
                pipeline.linker.link(query.text, k=k).timing for query in queries
            ]
            per_k[k] = _mean_breakdown(breakdowns)
        results[name] = per_k
        if verbose:
            rows = [
                [k] + [round(per_k[k][phase] * 1e3, 3) for phase in PHASES]
                + [round(per_k[k]["total"] * 1e3, 3)]
                for k in k_grid
            ]
            emit(
                format_table(
                    ["k"] + [f"{p} (ms)" for p in PHASES] + ["total (ms)"],
                    rows,
                    title=f"Fig11(a/b) {name}",
                )
            )
    return results


def run_vary_query_length(
    scale: ExperimentScale = DEFAULT,
    seed: int = 2018,
    length_grid: Sequence[int] = LENGTH_GRID,
    queries_per_point: int = 40,
    datasets: Sequence[str] = DATASETS,
    verbose: bool = True,
) -> Dict[str, Dict[int, Dict[str, float]]]:
    """Figure 11(c,d): per-phase mean seconds per query, per |q|.

    Queries of exactly |q| words are formed by truncating/filtering the
    evaluation queries.
    """
    generator = ensure_rng(seed)
    results: Dict[str, Dict[int, Dict[str, float]]] = {}
    for name in datasets:
        pipeline = _pipeline_for(scale, name, generator)
        pipeline.linker.warm_cache()
        all_queries = pipeline.dataset.queries
        per_length: Dict[int, Dict[str, float]] = {}
        for length in length_grid:
            texts: List[str] = []
            for query in all_queries:
                words = query.text.split()
                if len(words) >= length:
                    texts.append(" ".join(words[:length]))
                if len(texts) >= queries_per_point:
                    break
            if not texts:
                continue
            breakdowns = [pipeline.linker.link(text).timing for text in texts]
            per_length[length] = _mean_breakdown(breakdowns)
        results[name] = per_length
        if verbose:
            rows = [
                [length]
                + [round(values[phase] * 1e3, 3) for phase in PHASES]
                + [round(values["total"] * 1e3, 3)]
                for length, values in per_length.items()
            ]
            emit(
                format_table(
                    ["|q|"] + [f"{p} (ms)" for p in PHASES] + ["total (ms)"],
                    rows,
                    title=f"Fig11(c/d) {name}",
                )
            )
    return results
