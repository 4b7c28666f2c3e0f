"""Scatter-gather sharding: provable equivalence and failure behaviour."""

import math

import numpy as np
import pytest

from repro.core.candidates import CandidateGenerator
from repro.core.config import LinkerConfig
from repro.core.linker import NeuralConceptLinker
from repro.engine.shards import ShardFailure, ShardedConceptEngine
from repro.utils.errors import ConfigurationError, DataError
from repro.utils.faults import FaultSpec, InjectedFault, fault_injection

from tests.core import phase2_oracle as oracle
from tests.engine.conftest import ENGINE_QUERIES

SHARD_COUNTS = (1, 2, 4)


@pytest.fixture(scope="package")
def baseline_linker(engine_stack):
    """The runtime-encoding linker whose per-candidate oracle scores
    (``tests/core/phase2_oracle.py``) the engine must reproduce."""
    ontology, kb, model, _ = engine_stack
    return NeuralConceptLinker(model, ontology, LinkerConfig(k=5), kb=kb)


def make_engine_linker(engine_stack, shards):
    ontology, kb, model, artifact_dir = engine_stack
    return NeuralConceptLinker(
        model,
        ontology,
        LinkerConfig(k=5, artifact_dir=str(artifact_dir), shards=shards),
        kb=kb,
    )


class TestShardEquivalence:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_retrieve_matches_monolithic_generator(self, engine_stack,
                                                   artifact, shards):
        ontology, _, model, _ = engine_stack
        monolithic = CandidateGenerator.from_documents(
            ontology, artifact.documents
        )
        with ShardedConceptEngine(
            model, ontology, artifact, shards=shards
        ) as engine:
            for query in ENGINE_QUERIES:
                tokens = query.split()
                expected = monolithic.generate(tokens, 5)
                got = engine.retrieve(tokens, 5)
                assert [cid for cid, _ in got] == [cid for cid, _ in expected]
                for (_, score), (_, reference) in zip(got, expected):
                    assert score == pytest.approx(reference, abs=1e-9)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_score_batch_matches_whole_batch_scoring(self, engine_stack,
                                                     artifact, shards):
        ontology, _, model, _ = engine_stack
        cids = list(artifact.cids)[:6]
        query_ids = model.words_to_ids("ckd stage 5".split())
        batch = [
            (artifact.encoding_of(cid), artifact.structure_memory_of(cid))
            for cid in cids
        ]
        expected = model.score_batch([query_ids] * len(cids), batch)
        with ShardedConceptEngine(
            model, ontology, artifact, shards=shards
        ) as engine:
            got = engine.score_batch([query_ids] * len(cids), cids)
        np.testing.assert_allclose(got, expected, atol=1e-9)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_linker_rankings_identical_to_runtime_encoding(
        self, engine_stack, baseline_linker, shards
    ):
        linker = make_engine_linker(engine_stack, shards)
        try:
            for query in ENGINE_QUERIES:
                expected = oracle.link(baseline_linker, query)
                got = linker.link(query)
                assert [c.cid for c in got.ranked] == [
                    c.cid for c in expected.ranked
                ]
                for mine, reference in zip(got.ranked, expected.ranked):
                    assert mine.log_prob == pytest.approx(
                        reference.log_prob, abs=1e-9
                    )
                    assert mine.keyword_score == pytest.approx(
                        reference.keyword_score, abs=1e-12
                    )
        finally:
            engine = linker.engine
            if engine is not None:
                engine.close()

    def test_closed_pool_still_answers_inline(self, engine_stack, artifact):
        ontology, _, model, _ = engine_stack
        query_ids = model.words_to_ids("ckd stage 5".split())
        cids = list(artifact.cids)[:4]
        engine = ShardedConceptEngine(model, ontology, artifact, shards=4)
        before = engine.retrieve("ckd stage 5".split(), 5)
        scores_before = engine.score_batch([query_ids] * len(cids), cids)
        engine.close()
        after = engine.retrieve("ckd stage 5".split(), 5)
        scores_after = engine.score_batch([query_ids] * len(cids), cids)
        assert after == before
        np.testing.assert_array_equal(scores_after, scores_before)


class TestShardTopology:
    def test_round_robin_covers_every_concept(self, engine_stack, artifact):
        ontology, _, model, _ = engine_stack
        with ShardedConceptEngine(
            model, ontology, artifact, shards=4
        ) as engine:
            stats = engine.stats()
            assert stats["shards"] == 4
            assert sum(stats["shard_sizes"]) == len(artifact)
            assert max(stats["shard_sizes"]) - min(stats["shard_sizes"]) <= 1
            for cid in artifact.cids:
                assert cid in engine
                assert 0 <= engine.shard_of(cid) < 4
            with pytest.raises(DataError):
                engine.shard_of("Z99.99")

    def test_score_batch_rejects_unknown_cid(self, engine_stack, artifact):
        ontology, _, model, _ = engine_stack
        query_ids = model.words_to_ids("ckd stage 5".split())
        with ShardedConceptEngine(
            model, ontology, artifact, shards=2
        ) as engine:
            with pytest.raises(DataError, match="Z99.99"):
                engine.score_batch(
                    [query_ids, query_ids], [artifact.cids[0], "Z99.99"]
                )

    def test_more_shards_than_concepts_is_rejected(self, engine_stack,
                                                   artifact):
        ontology, _, model, _ = engine_stack
        with pytest.raises(ConfigurationError):
            ShardedConceptEngine(
                model, ontology, artifact, shards=len(artifact) + 1
            )

    def test_config_requires_artifact_for_sharding(self):
        with pytest.raises(ConfigurationError):
            LinkerConfig(shards=2)


class TestShardFailures:
    def test_one_dead_shard_degrades_retrieval_not_results(
        self, engine_stack, artifact
    ):
        ontology, _, model, _ = engine_stack
        with ShardedConceptEngine(
            model, ontology, artifact, shards=4
        ) as engine:
            with fault_injection(
                {"engine.shard.retrieve": FaultSpec(times=1)}
            ):
                hits = engine.retrieve("ckd stage 5".split(), 5)
            assert hits, "three healthy shards must still answer"
            assert engine.stats()["retrieve_shard_failures"] == 1

    def test_all_shards_dead_raises_shard_failure(self, engine_stack,
                                                  artifact):
        ontology, _, model, _ = engine_stack
        with ShardedConceptEngine(
            model, ontology, artifact, shards=2
        ) as engine:
            with fault_injection(
                {"engine.shard.retrieve": FaultSpec(times=-1)}
            ):
                with pytest.raises(ShardFailure):
                    engine.retrieve("ckd stage 5".split(), 5)

    def test_scoring_failure_propagates_the_original_error(
        self, engine_stack, artifact
    ):
        ontology, _, model, _ = engine_stack
        query_ids = model.words_to_ids("ckd stage 5".split())
        with ShardedConceptEngine(
            model, ontology, artifact, shards=2
        ) as engine:
            with fault_injection({"engine.shard.score": FaultSpec(times=-1)}):
                with pytest.raises(InjectedFault):
                    engine.score_batch([query_ids], [artifact.cids[0]])

    def test_worker_death_mid_request_degrades_the_linker(self, engine_stack):
        """The engine's Phase-II decode dying mid-request must not fail
        the query: ``degrade_on_error`` serves the Phase-I keyword
        ranking."""
        linker = make_engine_linker(engine_stack, shards=4)
        try:
            clean = linker.link("ckd stage 5")
            assert not clean.degraded
            with fault_injection({"engine.shard.score": FaultSpec(times=-1)}):
                result = linker.link("ckd stage 5")
            assert result.degraded
            assert result.degraded_reason.startswith("error:")
            assert {c.cid for c in result.ranked} == {
                c.cid for c in clean.ranked
            }
            keyword_scores = [c.keyword_score for c in result.ranked]
            assert keyword_scores == sorted(keyword_scores, reverse=True)
            assert all(c.log_prob == -math.inf for c in result.ranked)
        finally:
            if linker.engine is not None:
                linker.engine.close()
