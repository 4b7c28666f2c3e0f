"""HybridRetriever: fusion math, fallbacks, and recall vs the exact scan."""

import zlib

import numpy as np
import pytest

from repro.retrieval.ann import DenseIndex
from repro.retrieval.hybrid import (
    FUSION_WEIGHT,
    RRF_K,
    HybridRetriever,
    fuse_candidates,
)
from repro.retrieval.inverted import InvertedIndex
from repro.text.tfidf import TfIdfIndex
from repro.utils.errors import ConfigurationError

DIM = 24


def featurize(tokens):
    """Deterministic bag-of-hashed-words embedding.

    Correlated with token overlap (the regime a trained encoder gives
    the dense side) without needing a model in the loop.
    """
    vector = np.zeros(DIM)
    for token in tokens:
        rng = np.random.default_rng(zlib.crc32(token.encode("utf-8")))
        vector += rng.normal(size=DIM)
    return vector if np.linalg.norm(vector) else None


def build_stack(n_docs=400, seed=17):
    rng = np.random.default_rng(seed)
    vocab = [f"t{i:02d}" for i in range(60)]
    documents = []
    for i in range(n_docs):
        tokens = [vocab[j] for j in rng.choice(len(vocab), size=6, replace=False)]
        documents.append((f"C{i}", tokens))
    sparse = InvertedIndex.build(documents)
    vectors = np.stack([featurize(tokens) for _, tokens in documents])
    dense = DenseIndex.train(vectors, seed=0)
    exact = TfIdfIndex().fit(documents)
    return documents, sparse, dense, exact


@pytest.fixture(scope="module")
def stack():
    return build_stack()


class TestFuseCandidates:
    def test_rrf_formula(self):
        positions = np.asarray([5, 9])
        sparse = np.asarray([0.9, 0.1])  # ranks 0, 1
        dense = np.asarray([0.1, 0.9])  # ranks 1, 0
        fused = fuse_candidates(positions, sparse, dense)
        w = FUSION_WEIGHT
        first, second = 1.0 / (RRF_K + 1), 1.0 / (RRF_K + 2)
        assert fused[0] == pytest.approx(w * first + (1 - w) * second)
        assert fused[1] == pytest.approx(w * second + (1 - w) * first)
        assert fused[0] > fused[1]  # the sparse rank dominates


class TestModes:
    def test_hybrid_recall_against_exact_top_k(self, stack):
        """The small-scale recall gate: hybrid@k covers >= 0.95 of the
        exact scan's top-k.  Random-token documents are adversarial for
        score-scale fusion (hash embeddings only weakly order the sparse
        top-10), which is why rank fusion (rrf, w=0.95) is the fixed
        setting — the 100k benchmark holds it to recall >= 0.98."""
        _, sparse, dense, exact = stack
        retriever = HybridRetriever(sparse, dense, featurize)
        rng = np.random.default_rng(23)
        vocab = [f"t{i:02d}" for i in range(60)]
        hits = total = 0
        for _ in range(40):
            query = [
                vocab[j] for j in rng.choice(len(vocab), size=4, replace=False)
            ]
            truth = {hit.key for hit in exact.search(query, k=10)}
            found = {hit.key for hit in retriever.search(query, 10)}
            hits += len(truth & found)
            total += len(truth)
        assert total > 0
        assert hits / total >= 0.95

    def test_missing_query_vector_falls_back_to_sparse(self, stack):
        _, sparse, dense, exact = stack
        retriever = HybridRetriever(sparse, dense, lambda tokens: None)
        assert retriever.search(["t01", "t02"], 5) == (
            exact.search(["t01", "t02"], k=5)
        )

    def test_no_dense_index_falls_back_to_sparse(self, stack):
        _, sparse, _, exact = stack
        retriever = HybridRetriever(sparse, None)
        assert retriever.search(["t01"], 5) == exact.search(["t01"], k=5)

    def test_empty_union_returns_empty(self, stack):
        _, sparse, dense, _ = stack
        retriever = HybridRetriever(sparse, dense, lambda tokens: None)
        assert retriever.search(["qqqq"], 5) == []


class TestValidation:
    def test_corpus_size_mismatch(self, stack):
        _, sparse, _, _ = stack
        small_dense = DenseIndex.train(np.eye(4), seed=0)
        with pytest.raises(ConfigurationError):
            HybridRetriever(sparse, small_dense)

    def test_len_reports_corpus_size(self, stack):
        documents, sparse, dense, _ = stack
        assert len(HybridRetriever(sparse, dense)) == len(documents)
