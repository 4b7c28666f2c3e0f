"""Sparse + dense fusion: one Phase-I candidate list from two signals.

The flair ``BiomedicalEntityLinker`` recipe in miniature: run the
sparse (TF-IDF inverted-index) and dense (IVF ANN) retrievers over the
same query, union their candidate pools, and re-score the union with
*both* signals before ranking.  The symmetric re-scoring matters — a
candidate only the dense side surfaced still gets its **exact** sparse
cosine (the sparse query already accumulated raw scores for every
touched document, and untouched documents truly score 0), and a
candidate only the sparse side surfaced gets its exact dense cosine
via one gathered dot product.  Naively scoring missing sides as 0
would let pool membership, not evidence, decide the ranking.

The two signals are fused by reciprocal rank,
``w/(60+r_s) + (1−w)/(60+r_d)``, with ranks computed over the union by
each signal — robust when the two score distributions are
incomparable.  ``w`` (:data:`FUSION_WEIGHT`) and the dense probe width
(:data:`NPROBE`) are fixed: they are the settings that hold recall@64
>= 0.98 against the exact scan in the 100k benchmark
(``BENCH_retrieval.json``).

Ties always break on document position, so the ranking is
deterministic.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.retrieval.ann import DenseIndex
from repro.retrieval.inverted import InvertedIndex
from repro.text.tfidf import TfIdfMatch
from repro.utils.errors import ConfigurationError

#: The RRF dampening constant (the literature-standard 60).
RRF_K = 60

#: RRF weight of the sparse ranks; the dense ranks get ``1 − w``.
FUSION_WEIGHT = 0.95

#: IVF clusters the dense side probes per query.
NPROBE = 8

#: How many candidates each side contributes to the union, as a
#: multiple of the requested k — slack so documents near the cut line
#: of one signal can be rescued by the other.
POOL_MULTIPLIER = 2


def _ranks(positions: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """0-based ranks of each union member under ``(-score, position)``."""
    order = np.lexsort((positions, -scores))
    ranks = np.empty(len(order), dtype=np.int64)
    ranks[order] = np.arange(len(order))
    return ranks


def fuse_candidates(
    positions: np.ndarray,
    sparse_scores: np.ndarray,
    dense_scores: np.ndarray,
) -> np.ndarray:
    """Reciprocal-rank-fused scores for union candidates.

    ``positions`` are the union's document positions; ``sparse_scores``
    are exact TF-IDF cosines and ``dense_scores`` exact embedding
    cosines, one per candidate.  Returns one fused score per candidate
    (higher is better); the caller ranks on ``(-fused, position)``.
    """
    sparse_ranks = _ranks(positions, sparse_scores)
    dense_ranks = _ranks(positions, dense_scores)
    return FUSION_WEIGHT / (RRF_K + 1 + sparse_ranks) + (
        1.0 - FUSION_WEIGHT
    ) / (RRF_K + 1 + dense_ranks)


class HybridRetriever:
    """Phase-I retrieval over a sparse and a dense index in concert.

    The two indexes must address the same corpus in the same order:
    sparse document position ``p`` and dense vector row ``p`` are the
    same concept (both follow the compiled artifact's concept order).
    ``encode_query`` maps query tokens to a dense query vector — the
    same encoder the concept vectors came from — and may return ``None``
    when a query cannot be encoded, in which case the search degrades
    to the sparse answer.
    """

    def __init__(
        self,
        sparse: InvertedIndex,
        dense: Optional[DenseIndex],
        encode_query: Optional[
            Callable[[Sequence[str]], Optional[np.ndarray]]
        ] = None,
    ) -> None:
        if dense is not None and len(dense) != len(sparse):
            raise ConfigurationError(
                f"sparse index has {len(sparse)} documents but dense index "
                f"has {len(dense)} vectors — they must cover the same corpus"
            )
        self._sparse = sparse
        self._dense = dense
        self._encode_query = encode_query
        self._keys = sparse.keys

    # -- introspection --------------------------------------------------

    @property
    def sparse(self) -> InvertedIndex:
        """The sparse (inverted TF-IDF) side."""
        return self._sparse

    def __len__(self) -> int:
        return len(self._keys)

    # -- retrieval ------------------------------------------------------

    def search(self, tokens: Sequence[str], k: int) -> List[TfIdfMatch]:
        """Fused top-``k``: union both pools, re-score with both signals.

        Falls back to the sparse answer when the query has no dense
        vector (or no dense index is attached).
        """
        query = self._query_vector(tokens)
        if query is None:
            return self._sparse.search(tokens, k)
        pool = max(k, POOL_MULTIPLIER * k)
        sparse_result = self._sparse.search_scored(tokens, pool)
        dense_pairs = self._dense.search(query, pool, nprobe=NPROBE)
        dense_positions = np.asarray(
            [position for position, _ in dense_pairs], dtype=np.int64
        )
        union = np.union1d(sparse_result.positions, dense_positions)
        if len(union) == 0:
            return []
        sparse_scores = sparse_result.cosine_of(union)
        dense_scores = self._dense.similarities_of(query, union)
        fused = fuse_candidates(union, sparse_scores, dense_scores)
        order = np.lexsort((union, -fused))[:k]
        return [
            TfIdfMatch(
                key=self._keys[int(union[rank])], score=float(fused[rank])
            )
            for rank in order
        ]

    def _query_vector(self, tokens: Sequence[str]) -> Optional[np.ndarray]:
        if self._dense is None or self._encode_query is None:
            return None
        return self._encode_query(tokens)
