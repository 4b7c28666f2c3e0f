"""The concept engine: one Phase-I index per linker, and failure
behaviour.  Equivalence with the per-candidate oracle is in
``test_shards.py``."""

import math

import pytest

from repro import api
from repro.core.config import LinkerConfig
from repro.core.linker import NeuralConceptLinker
from repro.core.persistence import save_pipeline
from repro.engine.compile import compile_artifact
from repro.engine.concept_engine import ConceptEngine
from repro.text.tfidf import TfIdfIndex
from repro.utils.errors import DataError
from repro.utils.faults import FaultSpec, InjectedFault, fault_injection

from tests.engine.conftest import make_engine_linker


class TestOneIndex:
    def test_linker_adopts_the_engine_generator(self, engine_stack):
        linker = make_engine_linker(engine_stack)
        assert linker.candidates is linker.engine.candidates

    def test_load_linker_fits_one_tfidf_index(self, engine_stack, tmp_path,
                                              monkeypatch):
        """A linker holds exactly one exact Phase-I index: an artifact's
        precompiled inverted index is adopted as is (no fit at load),
        and a linker without an artifact fits one while it builds its
        artifact in memory."""
        ontology, kb, model, _ = engine_stack
        save_pipeline(tmp_path / "model", model, ontology, kb=kb)
        artifact_dir = compile_artifact(
            tmp_path / "artifact", model, ontology, kb=kb, index="sparse"
        )
        calls = []
        fit = TfIdfIndex.fit

        def counting_fit(self, documents):
            calls.append(self)
            return fit(self, documents)

        monkeypatch.setattr(TfIdfIndex, "fit", counting_fit)
        served = api.load_linker(
            tmp_path / "model", LinkerConfig(artifact_dir=str(artifact_dir))
        )
        assert calls == []
        assert served.candidates.index is served.engine.artifact.sparse_index
        in_memory = api.load_linker(tmp_path / "model", LinkerConfig())
        assert len(calls) == 1
        assert in_memory.engine.artifact.directory is None
        assert (
            in_memory.candidates.index
            is in_memory.engine.artifact.sparse_index
        )

    def test_hybrid_mode_shares_the_exact_index(self, engine_stack, tmp_path):
        ontology, kb, model, _ = engine_stack
        artifact_dir = compile_artifact(
            tmp_path / "artifact", model, ontology, kb=kb, index="dense"
        )
        linker = NeuralConceptLinker(
            model,
            ontology,
            LinkerConfig(
                k=5, artifact_dir=str(artifact_dir), retrieval_mode="hybrid"
            ),
            kb=kb,
        )
        assert linker.engine.retriever.sparse is linker.candidates.index


class TestFailures:
    def test_score_batch_rejects_unknown_cid(self, engine_stack, artifact):
        ontology, _, model, _ = engine_stack
        query_ids = model.words_to_ids("ckd stage 5".split())
        engine = ConceptEngine(model, ontology, artifact)
        with pytest.raises(DataError, match="Z99.99"):
            engine.score_batch(
                [query_ids, query_ids], [artifact.cids[0], "Z99.99"]
            )

    def test_retrieval_fault_propagates_the_original_error(
        self, engine_stack, artifact
    ):
        ontology, _, model, _ = engine_stack
        engine = ConceptEngine(model, ontology, artifact)
        with fault_injection({"engine.retrieve": FaultSpec(times=-1)}):
            with pytest.raises(InjectedFault):
                engine.retrieve("ckd stage 5".split(), 5)

    def test_scoring_failure_propagates_the_original_error(
        self, engine_stack, artifact
    ):
        ontology, _, model, _ = engine_stack
        query_ids = model.words_to_ids("ckd stage 5".split())
        engine = ConceptEngine(model, ontology, artifact)
        with fault_injection({"engine.score": FaultSpec(times=-1)}):
            with pytest.raises(InjectedFault):
                engine.score_batch([query_ids], [artifact.cids[0]])

    def test_scoring_fault_mid_request_degrades_the_linker(self,
                                                          engine_stack):
        """The engine's Phase-II decode failing mid-request must not fail
        the query: ``degrade_on_error`` serves the Phase-I keyword
        ranking."""
        linker = make_engine_linker(engine_stack)
        clean = linker.link("ckd stage 5")
        assert not clean.degraded
        with fault_injection({"engine.score": FaultSpec(times=-1)}):
            result = linker.link("ckd stage 5")
        assert result.degraded
        assert result.degraded_reason.startswith("error:")
        assert {c.cid for c in result.ranked} == {
            c.cid for c in clean.ranked
        }
        keyword_scores = [c.keyword_score for c in result.ranked]
        assert keyword_scores == sorted(keyword_scores, reverse=True)
        assert all(c.log_prob == -math.inf for c in result.ranked)
