"""Array-backed inverted index: the sublinear sparse retriever.

Same scoring model as :class:`repro.text.tfidf.TfIdfIndex` (ltc-style
TF-IDF with L2 document normalisation), different execution: postings
are frozen into contiguous NumPy arrays at build time — one
``(doc_id, weight)`` pair per (term, document) — and a query
accumulates term contributions with vectorised fancy-index adds
instead of a Python dict loop.  The per-document accumulation order is
the same as the exact scan's (terms in query first-occurrence order;
each document appears at most once per term), every arithmetic step
(weight product, accumulation, norm division) runs in IEEE-754 double
exactly as the scalar code does, and ties are broken on the same
``(-cosine, doc_id)`` key — so for the hits it returns, the scores are
**bit-identical** to ``TfIdfIndex.search`` and the top-k lists are
equal element-for-element.  The property suite
(``tests/retrieval/test_inverted.py``) holds this over randomized
corpora.

Posting lists are stored impact-ordered (weight descending).  Exact
scoring does not need that order — per-term accumulation is
element-wise — but it is the layout of every compiled
``index_sparse.npz``, so freezing the same way keeps a recompiled
artifact byte-identical to one written before.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.text.tfidf import CorpusStats, TfIdfIndex, TfIdfMatch
from repro.utils.errors import DataError, NotFittedError

#: Touched-document sets at or below this size are fully sorted; above
#: it, an argpartition pre-selects the top-k value range first and only
#: the boundary-tie superset is sorted (identical output, less work).
_FULL_SORT_LIMIT = 4096


class SparseHits:
    """One query's result: the top-k hits plus a whole-corpus scorer.

    The fusion layer needs the *exact* sparse cosine of documents the
    dense side surfaced, not just of the sparse top-k.  Scoring a query
    already accumulated raw scores for every touched document, so that
    lookup is a division away; untouched documents have true cosine 0.
    """

    __slots__ = ("hits", "positions", "_raw", "_norms", "_query_norm")

    def __init__(
        self,
        hits: List[TfIdfMatch],
        positions: np.ndarray,
        raw: Optional[np.ndarray],
        norms: Optional[np.ndarray],
        query_norm: float,
    ) -> None:
        self.hits = hits
        #: Document positions of ``hits``, in hit order (what the dense
        #: side and the fusion layer address documents by).
        self.positions = positions
        self._raw = raw
        self._norms = norms
        self._query_norm = query_norm

    def cosine_of(self, positions: np.ndarray) -> np.ndarray:
        """Exact query cosines for arbitrary document positions."""
        if self._raw is None:
            return np.zeros(len(positions), dtype=np.float64)
        positions = np.asarray(positions, dtype=np.int64)
        return self._raw[positions] / (
            self._norms[positions] * self._query_norm
        )


class InvertedIndex:
    """Vectorised TF-IDF inverted index over frozen concept documents.

    Build with :meth:`build` (fits a :class:`TfIdfIndex` internally so
    the weights cannot drift from the reference implementation) or
    rehydrate a compiled one with :meth:`from_arrays`.
    """

    def __init__(self) -> None:
        self._keys: List[Hashable] = []
        self._norms: np.ndarray = np.zeros(0, dtype=np.float64)
        self._terms: List[str] = []
        self._term_slot: Dict[str, int] = {}
        self._offsets: np.ndarray = np.zeros(1, dtype=np.int64)
        self._docs: np.ndarray = np.zeros(0, dtype=np.int32)
        self._weights: np.ndarray = np.zeros(0, dtype=np.float64)
        self._df: Dict[str, int] = {}
        self._doc_count = 0
        self._fitted = False

    # -- construction -------------------------------------------------

    @classmethod
    def build(
        cls, documents: Sequence[Tuple[Hashable, Sequence[str]]]
    ) -> "InvertedIndex":
        """Index ``(key, tokens)`` documents.

        Delegates weight computation to ``TfIdfIndex.fit`` — the same
        tf/idf formulas, the same smoothing — then freezes its postings
        into arrays.
        """
        return cls.from_tfidf(TfIdfIndex().fit(documents))

    @classmethod
    def from_tfidf(cls, reference: TfIdfIndex) -> "InvertedIndex":
        """Freeze a fitted :class:`TfIdfIndex` into array postings."""
        stats = reference.stats()  # raises NotFittedError when unfitted
        index = cls()
        index._keys = [
            key for key in getattr(reference, "_keys")
        ]
        index._norms = np.asarray(
            getattr(reference, "_norms"), dtype=np.float64
        )
        index._df = dict(stats.df)
        index._doc_count = stats.doc_count
        postings: Dict[str, List[Tuple[int, float]]] = getattr(
            reference, "_postings"
        )
        terms = sorted(postings)
        offsets = np.zeros(len(terms) + 1, dtype=np.int64)
        doc_blocks: List[np.ndarray] = []
        weight_blocks: List[np.ndarray] = []
        for slot, term in enumerate(terms):
            entries = postings[term]
            docs = np.asarray([doc for doc, _ in entries], dtype=np.int32)
            weights = np.asarray(
                [weight for _, weight in entries], dtype=np.float64
            )
            # Impact order (weight descending, doc id breaking ties):
            # harmless for exact scoring — per-term accumulation is
            # element-wise — and the compiled index_sparse.npz layout,
            # which this order keeps byte-stable.
            order = np.lexsort((docs, -weights))
            doc_blocks.append(docs[order])
            weight_blocks.append(weights[order])
            offsets[slot + 1] = offsets[slot] + len(entries)
        index._terms = terms
        index._term_slot = {term: slot for slot, term in enumerate(terms)}
        index._offsets = offsets
        index._docs = (
            np.concatenate(doc_blocks)
            if doc_blocks
            else np.zeros(0, dtype=np.int32)
        )
        index._weights = (
            np.concatenate(weight_blocks)
            if weight_blocks
            else np.zeros(0, dtype=np.float64)
        )
        index._fitted = True
        return index

    # -- queries -------------------------------------------------------

    def _query_weights(
        self, tokens: Sequence[str]
    ) -> Tuple[Dict[str, float], float]:
        """Query-side weights and L2 norm, exactly as the exact scan.

        Terms are admitted by corpus document frequency (not posting
        presence) and iterated in first-occurrence order, so both the
        per-document accumulation order and the query norm's summation
        order reproduce ``TfIdfIndex.search`` bit for bit.
        """
        query_freq: Dict[str, int] = {}
        for token in tokens:
            query_freq[token] = query_freq.get(token, 0) + 1
        df = self._df
        smoothed_count = self._doc_count + 1
        weights = {}
        for term, count in query_freq.items():
            term_df = df.get(term, 0)
            if term_df > 0:
                weights[term] = (1.0 + math.log(count)) * (
                    1.0 + math.log(smoothed_count / (term_df + 1))
                )
        if not weights:
            return {}, 0.0
        norm = math.sqrt(sum(weight * weight for weight in weights.values()))
        return weights, norm

    def _rank(
        self, tokens: Sequence[str], k: int
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray], float]:
        """``(positions, cosines, raw scores, query norm)`` of the top-k.

        The one scoring path behind :meth:`search`, :meth:`top_k` and
        :meth:`search_scored`: positions and cosines of the hits in
        ``(-cosine, doc_id)`` order, plus the raw per-document
        accumulator (``None`` when no query term is in the corpus).
        """
        if not self._fitted:
            raise NotFittedError("InvertedIndex.search called before build")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        empty = np.zeros(0, dtype=np.int64)
        query_weights, query_norm = self._query_weights(tokens)
        if not query_weights:
            return empty, np.zeros(0), None, 0.0
        offsets, docs, doc_weights = self._offsets, self._docs, self._weights
        posting_docs: List[np.ndarray] = []
        products: List[np.ndarray] = []
        for term, query_weight in query_weights.items():
            slot = self._term_slot.get(term)
            if slot is not None:
                lo, hi = offsets[slot], offsets[slot + 1]
                posting_docs.append(docs[lo:hi])
                products.append(doc_weights[lo:hi] * query_weight)
        if not posting_docs:
            return empty, np.zeros(0), np.zeros(len(self._keys)), query_norm
        # One weighted bincount over the terms' postings, concatenated
        # in query order: it adds each document's products in that
        # order from 0.0, as the scalar loop does, in the same IEEE-754
        # doubles.
        scores = np.bincount(
            np.concatenate(posting_docs),
            weights=np.concatenate(products),
            minlength=len(self._keys),
        )
        # All weights are strictly positive, so "touched" is exactly
        # "score > 0" — the same candidate set the dict scan builds.
        # It is ascending, so a stable sort on −cosine alone keeps the
        # exact (-cosine, doc_id) order.
        touched = scores.nonzero()[0]
        if len(touched) == 0:
            return empty, np.zeros(0), scores, query_norm
        cosines = scores[touched] / (self._norms[touched] * query_norm)
        if len(touched) > k and len(touched) > _FULL_SORT_LIMIT:
            # Pre-select on value alone, then sort only the documents
            # at or above the k-th cosine — the boundary-tie superset.
            top = np.argpartition(-cosines, k - 1)[:k]
            pivot = cosines[top].min()
            keep = np.flatnonzero(cosines >= pivot)
            chosen = keep[np.argsort(-cosines[keep], kind="stable")[:k]]
        else:
            chosen = np.argsort(-cosines, kind="stable")[:k]
        return (
            touched[chosen].astype(np.int64),
            cosines[chosen],
            scores,
            query_norm,
        )

    def top_k(
        self, tokens: Sequence[str], k: int = 10
    ) -> List[Tuple[Hashable, float]]:
        """:meth:`search`'s hits as plain ``(key, score)`` pairs.

        The Phase-I form: the same keys and float scores, in the same
        order, without a result object per hit.
        """
        positions, cosines, _, _ = self._rank(tokens, k)
        keys = self._keys
        return [
            (keys[position], cosine)
            for position, cosine in zip(positions.tolist(), cosines.tolist())
        ]

    def search(self, tokens: Sequence[str], k: int = 10) -> List[TfIdfMatch]:
        """Top-``k`` hits — the exact scan's answer, as it types it.

        Bit-identical to ``TfIdfIndex.search`` over the same documents:
        same hit set, same order, same float scores.
        """
        return [
            TfIdfMatch(key=key, score=score)
            for key, score in self.top_k(tokens, k)
        ]

    def search_scored(self, tokens: Sequence[str], k: int = 10) -> SparseHits:
        """:meth:`search` plus the whole-corpus scorer for fusion."""
        positions, cosines, scores, query_norm = self._rank(tokens, k)
        keys = self._keys
        hits = [
            TfIdfMatch(key=keys[position], score=cosine)
            for position, cosine in zip(positions.tolist(), cosines.tolist())
        ]
        norms = None if scores is None else self._norms
        return SparseHits(hits, positions, scores, norms, query_norm)

    def postings_examined(self, tokens: Sequence[str]) -> int:
        """Postings a query would touch (Figure 11 CR accounting)."""
        if not self._fitted:
            raise NotFittedError(
                "InvertedIndex.postings_examined called before build"
            )
        total = 0
        for term in set(tokens):
            slot = self._term_slot.get(term)
            if slot is not None:
                total += int(self._offsets[slot + 1] - self._offsets[slot])
        return total

    # -- introspection --------------------------------------------------

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def keys(self) -> List[Hashable]:
        """Indexed document keys, position-ordered."""
        return list(self._keys)

    def stats(self) -> CorpusStats:
        """The corpus statistics driving the IDF weights."""
        if not self._fitted:
            raise NotFittedError("InvertedIndex.stats called before build")
        return CorpusStats(doc_count=self._doc_count, df=dict(self._df))

    # -- persistence ----------------------------------------------------

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """The compiled-artifact slab form (``np.savez``-ready).

        Keys and corpus statistics are *not* duplicated here: the
        artifact already stores the concept order and global TF-IDF
        stats in ``artifact.json``, and :meth:`from_arrays` takes them
        back as parameters.
        """
        if not self._fitted:
            raise NotFittedError("InvertedIndex.to_arrays called before build")
        return {
            "terms": np.asarray(self._terms, dtype=np.str_),
            "offsets": self._offsets,
            "docs": self._docs,
            "weights": self._weights,
            "norms": self._norms,
        }

    @classmethod
    def from_arrays(
        cls,
        arrays: Mapping[str, np.ndarray],
        keys: Sequence[Hashable],
        stats: CorpusStats,
    ) -> "InvertedIndex":
        """Rehydrate from :meth:`to_arrays` output plus artifact state."""
        index = cls()
        try:
            terms = [str(term) for term in arrays["terms"]]
            offsets = np.asarray(arrays["offsets"], dtype=np.int64)
            docs = np.asarray(arrays["docs"], dtype=np.int32)
            weights = np.asarray(arrays["weights"], dtype=np.float64)
            norms = np.asarray(arrays["norms"], dtype=np.float64)
        except KeyError as exc:
            raise DataError(
                f"sparse index arrays are missing field {exc}"
            ) from exc
        if len(offsets) != len(terms) + 1:
            raise DataError(
                f"sparse index is inconsistent: {len(terms)} terms but "
                f"{len(offsets)} offsets"
            )
        if len(norms) != len(keys):
            raise DataError(
                f"sparse index is inconsistent: {len(keys)} keys but "
                f"{len(norms)} document norms"
            )
        index._keys = list(keys)
        index._norms = norms
        index._terms = terms
        index._term_slot = {term: slot for slot, term in enumerate(terms)}
        index._offsets = offsets
        index._docs = docs
        index._weights = weights
        index._df = dict(stats.df)
        index._doc_count = stats.doc_count
        index._fitted = True
        return index
