"""Tests for the Timon review-page artifact pipeline (Appendix A)."""

import pytest

from repro.kb.knowledge_base import KnowledgeBase
from repro.lifecycle.pool import PooledQuery
from repro.lifecycle.timon import parse_review_csv, render_review_page
from repro.utils.errors import DataError


def pooled(query, candidates):
    """A PooledQuery over ranked ``(cid, loss)`` pairs."""
    top_cid, top_loss = candidates[0]
    return PooledQuery(
        query=query,
        top_cid=top_cid,
        top_loss=top_loss,
        margin=0.0,
        reason="margin",
        candidates=tuple(candidates),
    )


def pooled_items():
    return [
        pooled(
            "breast lump for investigation",
            [("D50.0", 14.2), ("N18.5", 14.5), ("R10.0", 18.0)],
        ),
        pooled("ckd five", [("N18.5", 6.1), ("N18.9", 6.2)]),
    ]


class TestRenderReviewPage:
    def test_renders_queries_and_candidates(self, figure1_ontology, tmp_path):
        path = tmp_path / "timon.html"
        count = render_review_page(pooled_items(), figure1_ontology, path)
        page = path.read_text(encoding="utf-8")
        assert count == 2
        assert "breast lump for investigation" in page
        assert "chronic kidney disease, stage 5" in page  # description shown
        assert 'input type="radio"' in page
        assert 'input type="text"' in page  # free-text "other concept"

    def test_escapes_html(self, figure1_ontology, tmp_path):
        items = [pooled("<script>alert(1)</script>", [("D50.0", 3.0)])]
        path = tmp_path / "timon.html"
        render_review_page(items, figure1_ontology, path)
        page = path.read_text(encoding="utf-8")
        assert "<script>alert(1)</script>" not in page
        assert "&lt;script&gt;" in page

    def test_unknown_candidate_skipped(self, figure1_ontology, tmp_path):
        items = [pooled("query", [("ZZZ", 1.0), ("D50.0", 2.0)])]
        path = tmp_path / "timon.html"
        render_review_page(items, figure1_ontology, path)
        page = path.read_text(encoding="utf-8")
        assert "ZZZ" not in page
        assert "D50.0" in page

    def test_max_candidates_validation(self, figure1_ontology, tmp_path):
        with pytest.raises(DataError):
            render_review_page([], figure1_ontology, tmp_path / "x.html", 0)


class TestParseReviewCsv:
    def test_resolves_valid_rows(self, figure1_ontology, tmp_path):
        kb = KnowledgeBase(figure1_ontology)
        path = tmp_path / "decisions.csv"
        path.write_text(
            "query,cid\n"
            "breast lump for investigation,N18.5\n"
            "scurvy like anemia,D53.2\n",
            encoding="utf-8",
        )
        resolved, rejected = parse_review_csv(kb.add_feedback, path)
        assert len(resolved) == 2
        assert rejected == []
        assert "breast lump for investigation" in kb.aliases_of("N18.5")

    def test_rejects_bad_rows_without_losing_good(self, figure1_ontology, tmp_path):
        kb = KnowledgeBase(figure1_ontology)
        path = tmp_path / "decisions.csv"
        path.write_text(
            "good query,D50.0\n"
            "missing concept,ZZZ\n"
            "lonelyfield\n"
            "\n",
            encoding="utf-8",
        )
        resolved, rejected = parse_review_csv(kb.add_feedback, path)
        assert len(resolved) == 1
        assert len(rejected) == 2
