"""Per-candidate Phase-II reference: the equivalence suites' oracle.

The linker scores every candidate of every query in a batch with one
lock-step decode (``ComAid.score_batch``).  This module derives the same
results the slow, obvious way — one ``model.score_with_encodings`` call
per candidate over the linker's own token filters — so the tests can
prove that batching changes the work schedule and nothing else:
identical rankings, tie order, and log-probs to ≤1e-9.

Phase I (OR + CR) and the RT sort are the linker's own; only the ED
scoring is re-derived.
"""

from typing import List, Optional, Sequence, Tuple

from repro.core.comaid import ComAid, ConceptEncoding
from repro.core.linker import LinkResult, NeuralConceptLinker, RankedConcept


def score_candidate(
    linker: NeuralConceptLinker, cid: str, query_tokens: Sequence[str]
) -> float:
    """``log p(q|c)`` for one candidate, decoded on its own.

    The Ω filter and shared-word removal come from the linker's
    ``_scoring_tokens`` and ``_effective_tokens``; a query fully covered
    by the description scores 0.0 without running the model.
    """
    effective = linker._effective_tokens(
        cid, linker._scoring_tokens(query_tokens)
    )
    if effective is None:
        return 0.0
    query_ids = linker.model.words_to_ids(effective)
    encoding = linker._concept_encoding(cid)
    ancestors = linker._ancestor_encodings(cid)
    return linker.model.score_with_encodings(encoding, ancestors, query_ids)


def link(
    linker: NeuralConceptLinker, query: str, k: Optional[int] = None
) -> LinkResult:
    """``linker.link(query, k)`` with Phase II scored per candidate."""
    prepared = linker._phase_one(query, linker._resolve_k(k))
    scored = [
        RankedConcept(
            cid=cid,
            log_prob=score_candidate(linker, cid, prepared.rewritten),
            keyword_score=keyword_score,
        )
        for cid, keyword_score in prepared.keyword_hits
    ]
    return linker._ranked_result(prepared, scored)


def link_batch(
    linker: NeuralConceptLinker,
    queries: Sequence[str],
    k: Optional[int] = None,
) -> List[LinkResult]:
    """The per-query reference for ``linker.link_batch(queries, k)``."""
    return [link(linker, query, k) for query in queries]


def score_rows(
    model: ComAid,
    query_ids: Sequence[Sequence[int]],
    candidates: Sequence[Tuple[ConceptEncoding, Sequence[ConceptEncoding]]],
) -> List[float]:
    """The per-row reference for ``model.score_batch(query_ids,
    candidates)``: each row decoded on its own."""
    return [
        model.score_with_encodings(encoding, ancestors, query)
        for (encoding, ancestors), query in zip(candidates, query_ids)
    ]
