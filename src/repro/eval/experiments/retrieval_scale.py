"""Retrieval-at-scale benchmark — sublinear indexes vs the exact scan.

The paper's Phase I retrieves candidates with an exact TF-IDF scan,
which is linear in matching postings and becomes the CR bottleneck once
the ontology outgrows ICD (Section 7 runs ~40k concepts; production
vocabularies pass 100k).  This runner measures the retrieval subsystem
(:mod:`repro.retrieval`) against that baseline on the synthetic 100k
fine-grained ontology from ``large-scale-like``:

* ``exact``  — :class:`~repro.text.tfidf.TfIdfIndex.search`, the
  pure-Python posting scan every prior experiment used;
* ``sparse`` — :class:`~repro.retrieval.inverted.InvertedIndex`,
  vectorised postings, bit-identical results (audited per query) —
  what the linker's ``exact`` retrieval mode serves;
* ``hybrid`` — :class:`~repro.retrieval.hybrid.HybridRetriever` fusing
  the inverted index with a :class:`~repro.retrieval.ann.DenseIndex`
  IVF probe over bag-of-hashed-words document embeddings, the mode the
  scale gate targets.

Dense vectors come from a deterministic hashed-bag featurizer rather
than a trained encoder: encoding 100k concepts through COM-AID is a
training-scale job, and the quantity under test is index-structure cost
and recall, not embedding quality.  Recall@k is measured against the
exact scan's top-k, so the gate (``benchmarks/test_retrieval.py``)
asserts the honest trade: ``hybrid`` must keep >= 0.98 of the exact
candidates while cutting CR p50 by >= 5x.
"""

from __future__ import annotations

import os
import statistics
import time
import zlib
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.datasets.generator import build_large_scale_ontology, generate_queries
from repro.eval.reporting import emit, format_table
from repro.retrieval.ann import DenseIndex
from repro.retrieval.hybrid import FUSION_WEIGHT, NPROBE, HybridRetriever
from repro.retrieval.inverted import InvertedIndex
from repro.text.tfidf import TfIdfIndex
from repro.text.tokenize import tokenize
from repro.utils.rng import derive_rng, ensure_rng

MODES = ("exact", "sparse", "hybrid")


def hash_featurizer(dim: int = 32) -> Callable[[Sequence[str]], Optional[np.ndarray]]:
    """Deterministic bag-of-hashed-words embedder with a token cache.

    Each token's vector is drawn once from a CRC32-seeded generator, so
    the embedding is stable across processes and correlated with token
    overlap — the regime a trained encoder provides — without putting a
    model on the 100k-concept path.  Returns ``None`` for queries that
    produce a zero vector (the retriever's sparse-fallback contract).
    """
    cache: Dict[str, np.ndarray] = {}

    def encode(tokens: Sequence[str]) -> Optional[np.ndarray]:
        vector = np.zeros(dim)
        for token in tokens:
            vec = cache.get(token)
            if vec is None:
                rng = np.random.default_rng(zlib.crc32(token.encode("utf-8")))
                vec = rng.normal(size=dim)
                cache[token] = vec
            vector += vec
        return vector if np.linalg.norm(vector) else None

    return encode


def _timed(
    search: Callable[[Sequence[str]], List],
    queries: Sequence[Sequence[str]],
) -> Dict[str, object]:
    latencies: List[float] = []
    results: List[List] = []
    for tokens in queries:
        start = time.perf_counter()
        hits = search(tokens)
        latencies.append(time.perf_counter() - start)
        results.append(hits)
    return {
        "p50_ms": statistics.median(latencies) * 1e3,
        "mean_ms": statistics.fmean(latencies) * 1e3,
        "results": results,
    }


def run_retrieval_scale(
    scale: object = "large",
    seed: int = 2018,
    k: int = 64,
    query_count: int = 128,
    dim: int = 32,
    index_seed: int = 0,
    verbose: bool = True,
) -> Dict[str, object]:
    """Exact vs sparse/hybrid retrieval over the 100k ontology.

    Returns a JSON-ready report: per-mode CR p50/mean latency and
    recall@``k`` against the exact scan, ``speedup_p50`` ratios, the
    per-query ``sparse_identical`` audit, and build-time accounting.
    ``scale`` takes a ``SCALE_LEAF_TARGETS`` name or a leaf count.
    """
    generator = ensure_rng(seed)
    timer = time.perf_counter
    build_seconds: Dict[str, float] = {}

    start = timer()
    ontology = build_large_scale_ontology(
        scale, rng=derive_rng(generator, "retrieval-scale", "ontology")
    )
    build_seconds["ontology"] = timer() - start
    documents = [(c.cid, list(c.words)) for c in ontology.fine_grained()]

    start = timer()
    exact = TfIdfIndex().fit(documents)
    build_seconds["exact_fit"] = timer() - start
    start = timer()
    sparse = InvertedIndex.from_tfidf(exact)
    build_seconds["sparse_build"] = timer() - start

    encode = hash_featurizer(dim)
    start = timer()
    vectors = np.stack([encode(tokens) for _, tokens in documents])
    build_seconds["vectors"] = timer() - start
    start = timer()
    dense = DenseIndex.train(vectors, seed=index_seed)
    build_seconds["dense_train"] = timer() - start

    retriever = HybridRetriever(sparse, dense, encode)

    linked = generate_queries(
        ontology,
        query_count,
        rng=derive_rng(generator, "retrieval-scale", "queries"),
    )
    queries = [tokenize(query.text) for query in linked]

    searches: Dict[str, Callable[[Sequence[str]], List]] = {
        "exact": lambda tokens: exact.search(tokens, k=k),
        "sparse": lambda tokens: sparse.search(tokens, k),
        "hybrid": lambda tokens: retriever.search(tokens, k),
    }
    timings: Dict[str, Dict[str, object]] = {}
    for mode in MODES:
        timings[mode] = _timed(searches[mode], queries)

    truth = [
        {hit.key for hit in hits} for hits in timings["exact"]["results"]
    ]
    sparse_identical = all(
        fast == slow
        for fast, slow in zip(
            timings["sparse"]["results"], timings["exact"]["results"]
        )
    )
    modes: Dict[str, Dict[str, float]] = {}
    for mode in MODES:
        found = timings[mode]["results"]
        overlap = sum(
            len(expected & {hit.key for hit in hits})
            for expected, hits in zip(truth, found)
        )
        total = sum(len(expected) for expected in truth)
        modes[mode] = {
            "p50_ms": timings[mode]["p50_ms"],
            "mean_ms": timings[mode]["mean_ms"],
            "recall_at_k": overlap / total if total else 0.0,
        }

    exact_p50 = modes["exact"]["p50_ms"]
    report: Dict[str, object] = {
        "dataset": "large-scale-like",
        "scale": scale,
        "seed": seed,
        "k": k,
        "queries": len(queries),
        "dim": dim,
        "nprobe": NPROBE,
        "fusion_weight": FUSION_WEIGHT,
        "cpu_count": os.cpu_count(),
        "concepts": len(documents),
        "n_clusters": dense.n_clusters,
        "modes": modes,
        "speedup_p50": {
            mode: exact_p50 / max(modes[mode]["p50_ms"], 1e-9)
            for mode in MODES
            if mode != "exact"
        },
        "sparse_identical": sparse_identical,
        "build_seconds": build_seconds,
    }
    if verbose:
        rows = [
            [
                mode,
                round(modes[mode]["p50_ms"], 3),
                round(modes[mode]["mean_ms"], 3),
                round(modes[mode]["recall_at_k"], 4),
                "-" if mode == "exact"
                else round(report["speedup_p50"][mode], 1),
            ]
            for mode in MODES
        ]
        emit(
            format_table(
                ["mode", "p50 (ms)", "mean (ms)", f"recall@{k}", "speedup"],
                rows,
                title=(
                    f"Retrieval at scale, {len(documents)} concepts k={k} "
                    f"(rrf, w={FUSION_WEIGHT}, nprobe={NPROBE})"
                ),
            )
        )
    return report
