"""Tests for the Appendix-A feedback loop's two steps: the uncertainty
rule (:meth:`UncertaintyPool.classify`) and the resolve step
(:meth:`KnowledgeBase.add_feedback`)."""

import pytest

from repro.core.linker import LinkResult, RankedConcept
from repro.kb.knowledge_base import KnowledgeBase
from repro.lifecycle.pool import UncertaintyPool
from repro.utils.errors import DataError


def make_result(query, scored):
    """Build a LinkResult with given (cid, log_prob) pairs."""
    ranked = tuple(
        RankedConcept(cid=cid, log_prob=log_prob, keyword_score=0.5)
        for cid, log_prob in scored
    )
    return LinkResult(
        query=query,
        tokens=tuple(query.split()),
        rewritten_tokens=tuple(query.split()),
        rewrites=(),
        ranked=ranked,
    )


@pytest.fixture
def pool():
    return UncertaintyPool(loss_threshold=10.0, margin_threshold=0.5)


@pytest.fixture
def kb(figure1_ontology):
    return KnowledgeBase(figure1_ontology)


class TestUncertainty:
    def test_confident_result(self, pool):
        result = make_result("q", [("D50.0", -2.0), ("D53.0", -9.0)])
        assert pool.classify(result) is None

    def test_high_loss_pools(self, pool):
        # Appendix A: high Loss = -log p means inaccurate linkage risk.
        result = make_result("q", [("D50.0", -15.0), ("D53.0", -30.0)])
        assert pool.classify(result) == "loss"

    def test_single_candidate_no_std_signal(self, pool):
        # A lone candidate has no runner-up to tie with: only its loss counts.
        result = make_result("q", [("D50.0", -3.0)])
        assert pool.classify(result) is None


class TestPooling:
    def test_submit_pools_uncertain_only(self, pool):
        assert pool.observe(make_result("bad", [("D50.0", -20.0)])) == "loss"
        assert pool.observe(
            make_result("good", [("D50.0", -1.0), ("D53.0", -8.0)])
        ) is None
        [item] = pool.items()
        assert item.query == "bad"
        assert item.candidates == (("D50.0", 20.0),)


class TestResolution:
    def test_resolve_appends_alias(self, pool, kb):
        query = "breast lump for investigation"
        pool.observe(make_result(query, [("D50.0", -20.0)]))
        [item] = pool.drain()
        pair = kb.add_feedback(item.query, "N18.5")
        assert pair.cid == "N18.5"
        assert pair.alias == query
        assert pair.canonical == "chronic kidney disease stage 5"
        assert query in kb.aliases_of("N18.5")
        assert len(pool) == 0  # drained queries have left the pool

    def test_resolve_unknown_concept(self, kb):
        with pytest.raises(KeyError):
            kb.add_feedback("query", "Z99")

    def test_resolve_empty_query(self, kb):
        with pytest.raises(DataError):
            kb.add_feedback(",;", "N18.5")
        assert kb.aliases_of("N18.5") == ()
