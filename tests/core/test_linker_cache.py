"""Batching, warm-up and concurrency of the engine-backed linker.

The heavy trained-model fixtures live in ``tests/serving/conftest.py``
(shared with the serving-layer tests); here we exercise what the
serving subsystem relies on: ``warm_cache`` touching every indexed
concept, ``link_batch`` fusing queries into one decode with identical
rankings, and deterministic concurrent linking.
"""

import random
import threading

import pytest

from repro.utils.errors import ConfigurationError

from tests.serving.conftest import make_linker, trained_pipeline  # noqa: F401


class TestWarmUp:
    def test_warm_cache_counts_all_leaves(self, make_linker, trained_pipeline):
        ontology, _, _ = trained_pipeline
        linker = make_linker()
        assert linker.warm_cache() == len(ontology.fine_grained())

    def test_warm_cache_counts_named_concepts(self, make_linker):
        assert make_linker().warm_cache(["N18.5", "D50.0"]) == 2


def _ranking(result):
    return [(c.cid, c.log_prob, c.keyword_score) for c in result.ranked]


class TestLinkBatch:
    def test_batch_matches_sequential(self, make_linker, trained_pipeline):
        """``link(q)`` is bit-equal to q's result inside any mixed
        ``link_batch``: a decode row's arithmetic must not depend on the
        rows batched with it.  The queries include one-row decodes
        (``k=1``, where ``matmul_rows`` keeps gemv and gemm rounding
        apart), one-word queries and queries whose candidates are all
        fully covered by their descriptions (no decode row at all)."""
        ontology, _, _ = trained_pipeline
        words = sorted(
            {word for leaf in ontology.fine_grained() for word in leaf.words}
            | {"ckd", "renal", "hemorrhagic", "vitamin", "pain", "5"}
        )
        rng = random.Random(2018)
        queries = [
            "ckd stage 5",
            "anemia blood loss",
            "scorbutic anemia",
            "anemia",
            "chronic kidney disease",
            "ckd",
            "5",
        ] + [
            " ".join(rng.choice(words) for _ in range(rng.randint(1, 5)))
            for _ in range(40)
        ]
        ks = [1, 5, 1, 5, 3, 1, 2] + [
            rng.choice([1, 1, 2, 5, 7]) for _ in range(40)
        ]
        sequential = make_linker()
        expected = [
            _ranking(sequential.link(query, k)) for query, k in zip(queries, ks)
        ]
        one_row = [
            ranking
            for ranking, k in zip(expected, ks)
            if k == 1 and ranking and ranking[0][1] != 0.0
        ]
        covered = [
            ranking
            for ranking in expected
            if ranking and all(log_prob == 0.0 for _, log_prob, _ in ranking)
        ]
        assert one_row and covered
        for size in (len(queries), 16, 5, 2):
            batched = make_linker()
            for start in range(0, len(queries), size):
                results = batched.link_batch(
                    queries[start : start + size], ks[start : start + size]
                )
                assert [_ranking(result) for result in results] == (
                    expected[start : start + size]
                )

    def test_batch_amortises_encodings(self, make_linker):
        linker = make_linker()
        # The same query twice: one fused decode, and each candidate
        # concept's decoder start is computed once, not once per row.
        first, _ = linker.link_batch(["ckd stage 5", "ckd stage 5"])
        stats = linker.engine.stats()
        assert stats["score_batches"] == 1
        assert 0 < linker.engine._starts_filled <= len(first.ranked)

    def test_per_query_k(self, make_linker):
        linker = make_linker()
        wide, narrow = linker.link_batch(["anemia", "anemia"], k=[5, 1])
        assert len(narrow.ranked) == 1
        assert len(wide.ranked) >= len(narrow.ranked)
        assert wide.ranked[0] == narrow.ranked[0]

    def test_k_length_mismatch_rejected(self, make_linker):
        with pytest.raises(ConfigurationError):
            make_linker().link_batch(["a", "b"], k=[1])

    def test_empty_batch(self, make_linker):
        assert make_linker().link_batch([]) == []

    def test_batch_timing_has_all_phases(self, make_linker):
        results = make_linker().link_batch(["ckd stage 5"])
        assert set(results[0].timing.seconds) == {"OR", "CR", "ED", "RT"}


class TestThreadSafety:
    def test_concurrent_links_are_deterministic(self, make_linker):
        """Direct concurrent link() calls (no dispatcher) agree with
        sequential results — the engine's decoder-start table is the
        only mutable shared state."""
        linker = make_linker()
        queries = ["ckd stage 5", "anemia blood loss", "acute abdomen pain"]
        expected = {
            query: [(c.cid, c.log_prob) for c in make_linker().link(query).ranked]
            for query in queries
        }
        failures = []

        def worker(query):
            try:
                for _ in range(5):
                    got = [(c.cid, c.log_prob) for c in linker.link(query).ranked]
                    assert got == expected[query]
            except BaseException as error:  # pragma: no cover - failure path
                failures.append((query, error))

        threads = [
            threading.Thread(target=worker, args=(query,))
            for query in queries * 4
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
