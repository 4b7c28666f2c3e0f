"""InvertedIndex: bit-identical equivalence with the exact TF-IDF scan."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.retrieval.inverted import InvertedIndex
from repro.text.tfidf import TfIdfIndex
from repro.utils.errors import DataError, NotFittedError

token = st.text(alphabet="abcdef", min_size=1, max_size=3)
document = st.lists(token, min_size=1, max_size=8)
corpus = st.lists(document, min_size=1, max_size=16)


def as_pairs(matches):
    return [(match.key, match.score) for match in matches]


def build_pair(documents):
    keyed = [(f"C{i}", doc) for i, doc in enumerate(documents)]
    exact = TfIdfIndex().fit(keyed)
    fast = InvertedIndex.build(keyed)
    return exact, fast


class TestBitIdentity:
    @pytest.mark.property
    @settings(max_examples=60, deadline=None)
    @given(corpus, document, st.integers(min_value=1, max_value=12))
    def test_search_equals_exact_scan(self, documents, query, k):
        """Same hit set, same order, same float scores — dataclass ==,
        through both entry points (``top_k`` is the Phase-I one)."""
        exact, fast = build_pair(documents)
        expected = exact.search(query, k=k)
        assert fast.search(query, k=k) == expected
        assert fast.top_k(query, k=k) == as_pairs(expected)

    def test_large_tie_plateau_uses_partition_path(self):
        """> _FULL_SORT_LIMIT touched docs with equal scores: the
        argpartition pre-selection must keep the exact doc-id tie order."""
        documents = [(i, ["shared"]) for i in range(4300)]
        exact = TfIdfIndex().fit(documents)
        fast = InvertedIndex.build(documents)
        expected = exact.search(["shared"], k=7)
        assert fast.search(["shared"], k=7) == expected
        assert fast.top_k(["shared"], k=7) == as_pairs(expected)

    @pytest.mark.parametrize(
        "query,k",
        [
            (["a", "b"], 2),  # ties at the k-th cosine
            (["a"], 12),  # k above the touched count
            (["a", "zzz", "a"], 3),  # an unknown term among known ones
        ],
    )
    def test_ties_wide_k_and_unknown_terms(self, query, k):
        exact, fast = build_pair(
            [["a", "b"], ["b", "a"], ["a", "b"], ["c"], ["a", "c", "c"]]
        )
        expected = exact.search(query, k=k)
        assert fast.search(query, k=k) == expected
        assert fast.top_k(query, k=k) == as_pairs(expected)

    def test_no_overlap_returns_empty(self):
        _, fast = build_pair([["alpha", "beta"]])
        assert fast.search(["gamma"], k=3) == []
        assert fast.top_k(["gamma"], k=3) == []
        assert fast.top_k([], k=3) == []


class TestSparseHits:
    def test_cosine_of_matches_hit_scores(self):
        documents = [["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"]]
        _, fast = build_pair(documents)
        result = fast.search_scored(["b", "c"], k=4)
        recomputed = result.cosine_of(result.positions)
        for hit, cosine in zip(result.hits, recomputed):
            assert hit.score == float(cosine)

    def test_untouched_documents_score_zero(self):
        documents = [["a"], ["b"], ["c"]]
        _, fast = build_pair(documents)
        result = fast.search_scored(["a"], k=3)
        assert result.cosine_of(np.asarray([1, 2])).tolist() == [0.0, 0.0]

    def test_empty_query_scorer_is_all_zero(self):
        _, fast = build_pair([["a"], ["b"]])
        result = fast.search_scored(["zzz"], k=2)
        assert result.hits == []
        assert result.cosine_of(np.asarray([0, 1])).tolist() == [0.0, 0.0]


class TestEarlyTermination:
    def test_impact_ordered_postings(self):
        """Per-term postings are frozen weight-descending (the compiled
        ``index_sparse.npz`` layout)."""
        documents = [(i, ["x"] * (i + 1) + ["pad"] * 3) for i in range(6)]
        fast = InvertedIndex.build(documents)
        arrays = fast.to_arrays()
        slot = list(arrays["terms"]).index("x")
        lo, hi = arrays["offsets"][slot], arrays["offsets"][slot + 1]
        weights = arrays["weights"][lo:hi]
        assert list(weights) == sorted(weights, reverse=True)

    def test_postings_examined(self):
        exact, fast = build_pair([["a", "b"], ["b"], ["c"]])
        assert fast.postings_examined(["b"]) == 2
        assert fast.postings_examined(["a", "b"]) == 3
        assert fast.postings_examined(["zzz"]) == 0


class TestRoundTrip:
    def test_arrays_round_trip_preserves_search(self):
        documents = [(f"C{i}", doc) for i, doc in enumerate(
            [["a", "b"], ["b", "c", "c"], ["d"], ["a", "d", "e"]]
        )]
        fast = InvertedIndex.build(documents)
        clone = InvertedIndex.from_arrays(
            fast.to_arrays(), keys=fast.keys, stats=fast.stats()
        )
        for query in (["a"], ["b", "c"], ["e", "a"], ["zzz"]):
            assert clone.search(query, k=4) == fast.search(query, k=4)

    def test_from_arrays_rejects_inconsistent_shapes(self):
        fast = InvertedIndex.build([("C0", ["a"]), ("C1", ["b"])])
        arrays = fast.to_arrays()
        with pytest.raises(DataError):
            InvertedIndex.from_arrays(
                arrays, keys=["C0"], stats=fast.stats()
            )
        broken = dict(arrays)
        del broken["weights"]
        with pytest.raises(DataError):
            InvertedIndex.from_arrays(
                broken, keys=fast.keys, stats=fast.stats()
            )


class TestValidation:
    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            InvertedIndex().search(["a"])
        with pytest.raises(NotFittedError):
            InvertedIndex().to_arrays()
        with pytest.raises(NotFittedError):
            InvertedIndex().stats()

    def test_invalid_k(self):
        fast = InvertedIndex.build([("C0", ["a"])])
        with pytest.raises(ValueError):
            fast.search(["a"], k=0)

    def test_len_and_keys(self):
        fast = InvertedIndex.build([("C0", ["a"]), ("C1", ["b"])])
        assert len(fast) == 2
        assert fast.keys == ["C0", "C1"]
