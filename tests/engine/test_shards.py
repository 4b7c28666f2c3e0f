"""The one concept engine under concurrent callers.

The threaded server shares one engine (and one linker) between its
request threads.  Each test splits its workload into ``shards`` slices,
answers every slice on its own thread against one shared, freshly built
engine, and requires the reassembled answer to equal the monolithic
one — so the lazily filled decoder-start table and the engine counters
stay correct when several requests race to fill them.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.candidates import CandidateGenerator
from repro.core.config import LinkerConfig
from repro.core.linker import NeuralConceptLinker
from repro.engine.concept_engine import ConceptEngine

from tests.core import phase2_oracle as oracle
from tests.engine.conftest import ENGINE_QUERIES, make_engine_linker

#: Workload slices, each answered on its own thread.
SHARD_COUNTS = (1, 2, 4)


@pytest.fixture(scope="package")
def baseline_linker(engine_stack):
    """A linker over an in-memory artifact; the oracle
    (``tests/core/phase2_oracle.py``) scores its candidates from
    encodings it computes itself, which the sharded engine linker
    must reproduce."""
    ontology, kb, model, _ = engine_stack
    return NeuralConceptLinker(model, ontology, LinkerConfig(k=5), kb=kb)


def answer_in_slices(items, shards, answer):
    """``[answer(item) for item in items]``, with ``items`` split
    round-robin into ``shards`` slices answered concurrently."""
    slices = [list(range(start, len(items), shards))
              for start in range(shards)]

    def run(indices):
        return [(index, answer(items[index])) for index in indices]

    with ThreadPoolExecutor(max_workers=shards) as pool:
        answered = dict(
            pair for part in pool.map(run, slices) for pair in part
        )
    return [answered[index] for index in range(len(items))]


class TestShardEquivalence:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_retrieve_matches_monolithic_generator(self, engine_stack,
                                                   artifact, shards):
        ontology, _, model, _ = engine_stack
        monolithic = CandidateGenerator.from_documents(
            ontology, artifact.documents
        )
        engine = ConceptEngine(model, ontology, artifact)
        answers = answer_in_slices(
            ENGINE_QUERIES, shards, lambda q: engine.retrieve(q.split(), 5)
        )
        for query, got in zip(ENGINE_QUERIES, answers):
            expected = monolithic.generate(query.split(), 5)
            assert [cid for cid, _ in got] == [cid for cid, _ in expected]
            for (_, score), (_, reference) in zip(got, expected):
                assert score == pytest.approx(reference, abs=1e-9)
        assert engine.stats()["retrievals"] == len(ENGINE_QUERIES)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_score_batch_matches_whole_batch_scoring(self, engine_stack,
                                                     artifact, shards):
        ontology, _, model, _ = engine_stack
        cids = list(artifact.cids)
        query_ids = model.words_to_ids("ckd stage 5".split())
        batch = [
            (artifact.encoding_of(cid), artifact.structure_memory_of(cid))
            for cid in cids
        ]
        expected = model.score_batch([query_ids] * len(cids), batch)
        engine = ConceptEngine(model, ontology, artifact)
        # Pairs of cids per call, so concurrent decodes fill
        # overlapping rows of the decoder-start table.
        pairs = [[cid, cids[(i + 1) % len(cids)]]
                 for i, cid in enumerate(cids)]
        answers = answer_in_slices(
            pairs, shards,
            lambda pair: engine.score_batch([query_ids] * 2, pair),
        )
        got = np.array([scores[0] for scores in answers])
        np.testing.assert_allclose(got, expected, atol=1e-9)
        assert engine.stats()["score_batches"] == len(pairs)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_linker_rankings_identical_to_runtime_encoding(
        self, engine_stack, baseline_linker, shards
    ):
        linker = make_engine_linker(engine_stack)
        answers = answer_in_slices(ENGINE_QUERIES, shards, linker.link)
        for query, got in zip(ENGINE_QUERIES, answers):
            expected = oracle.link(baseline_linker, query)
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
