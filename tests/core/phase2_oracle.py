"""Per-candidate Phase-II reference: the equivalence suites' oracle.

The linker scores every candidate of every query in a batch with one
lock-step decode (``ComAid.score_batch``).  This module derives the same
results the slow, obvious way — its own word-level token filters, then
one ``model.score_with_encodings`` call per candidate — so the tests can
prove that batching changes the work schedule and nothing else:
identical rankings, tie order, and log-probs to ≤1e-9.

Phase I (OR + CR) and the RT sort are the linker's own; only the ED
scoring is re-derived.
"""

from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.comaid import ComAid, ConceptEncoding
from repro.core.linker import LinkResult, NeuralConceptLinker, RankedConcept
from repro.nn.functional import log_softmax
from repro.text.tokenize import tokenize


def scoring_vocabulary(linker: NeuralConceptLinker) -> Set[str]:
    """Ω plus every knowledge-base alias word: the decoder's training
    targets."""
    vocabulary = set(linker.candidates.omega)
    if linker._kb is not None:
        for _, alias in linker._kb.labeled_snippets():
            vocabulary.update(tokenize(alias))
    return vocabulary


def effective_tokens(
    linker: NeuralConceptLinker,
    cid: str,
    query_tokens: Sequence[str],
    vocabulary: Set[str],
) -> Optional[List[str]]:
    """The query words Phase II decodes against ``cid``, word by word.

    With ``score_omega_only``, keep the words in ``vocabulary``
    (:func:`scoring_vocabulary`) and every numeric token, or every
    token when none survives.  With ``remove_shared_words``, then drop
    the words of the canonical description; ``None`` when nothing is
    left.
    """
    config = linker.config
    tokens = list(query_tokens)
    if config.score_omega_only:
        kept = [
            token
            for token in tokens
            if token in vocabulary or any(char.isdigit() for char in token)
        ]
        tokens = kept or tokens
    if config.remove_shared_words:
        description = set(linker.ontology.get(cid).words)
        tokens = [token for token in tokens if token not in description]
        if not tokens:
            return None
    return tokens


def score_candidate(
    linker: NeuralConceptLinker,
    cid: str,
    query_tokens: Sequence[str],
    vocabulary: Set[str],
) -> float:
    """``log p(q|c)`` for one candidate, decoded on its own.

    A query fully covered by the description scores 0.0 without
    running the model.
    """
    effective = effective_tokens(linker, cid, query_tokens, vocabulary)
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
    vocabulary = scoring_vocabulary(linker)
    scored = [
        RankedConcept(
            cid=cid,
            log_prob=score_candidate(
                linker, cid, prepared.rewritten, vocabulary
            ),
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


def step_log_probs(
    model: ComAid,
    encoding: ConceptEncoding,
    ancestors: Sequence[ConceptEncoding],
    query_ids: Sequence[int],
) -> np.ndarray:
    """The ``(len(query_ids) + 1, |V|)`` log-softmax rows of one
    sequential decode: row t is ``log p(· | <bos>, q_<t, c)``."""
    struct_memory = model._candidate_structure_memory(ancestors)
    if isinstance(ancestors, np.ndarray):
        ancestors = []
    cache = model._decode(encoding, list(ancestors), struct_memory, query_ids)
    return np.array(
        [log_softmax(model.output.forward(step.s_tilde)) for step in cache.steps]
    )
