"""Tests for whole-pipeline persistence."""

import pytest

from repro.core.config import ComAidConfig, LinkerConfig, TrainingConfig
from repro.core.linker import NeuralConceptLinker
from repro.core.persistence import (
    load_pipeline,
    load_pipeline_parts,
    save_pipeline,
)
from repro.core.trainer import ComAidTrainer
from repro.utils.errors import DataError


@pytest.fixture(scope="module")
def trained_stack():
    import tests.conftest  # reuse fixture builders indirectly

    from repro.kb.knowledge_base import KnowledgeBase
    from repro.ontology.concept import Concept
    from repro.ontology.ontology import Ontology

    ontology = Ontology()
    ontology.add(Concept("D50", "iron deficiency anemia"))
    ontology.add(
        Concept("D50.0", "iron deficiency anemia secondary to blood loss"),
        parent_cid="D50",
    )
    ontology.add(Concept("N18", "chronic kidney disease"))
    ontology.add(
        Concept("N18.5", "chronic kidney disease, stage 5"), parent_cid="N18"
    )
    kb = KnowledgeBase(ontology)
    kb.add_alias("D50.0", "anemia chronic blood loss")
    kb.add_alias("D50.0", "hemorrhagic anemia")
    kb.add_alias("N18.5", "ckd stage 5")
    kb.add_alias("N18.5", "end stage renal disease")
    trainer = ComAidTrainer(
        ComAidConfig(dim=8, beta=1),
        TrainingConfig(epochs=6, batch_size=4),
        rng=3,
    )
    model = trainer.fit(kb)
    return ontology, kb, model


class TestRoundTrip:
    def test_rankings_identical_after_reload(self, trained_stack, tmp_path):
        ontology, kb, model = trained_stack
        original = NeuralConceptLinker(
            model, ontology, LinkerConfig(k=3), kb=kb
        )
        directory = tmp_path / "pipeline"
        save_pipeline(directory, model, ontology, kb=kb)
        loaded_model, loaded_ontology, loaded_kb, vectors, loaded_linker = (
            load_pipeline(directory, LinkerConfig(k=3))
        )
        assert vectors is None  # none were saved
        assert loaded_kb is not None
        for query in ("ckd stage 5", "anemia blood loss", "renal disease"):
            before = [(c.cid, round(c.log_prob, 8)) for c in original.link(query).ranked]
            after = [
                (c.cid, round(c.log_prob, 8))
                for c in loaded_linker.link(query).ranked
            ]
            assert before == after, query

    def test_parts_load_without_building_a_linker(
        self, trained_stack, tmp_path, monkeypatch
    ):
        """``repro compile`` loads through the parts: a linker there would
        compile every concept in memory only to be discarded."""
        ontology, kb, model = trained_stack
        directory = tmp_path / "pipeline"
        save_pipeline(directory, model, ontology, kb=kb, metadata={"seed": 3})

        def refuse(*args, **kwargs):
            raise AssertionError("load_pipeline_parts built a linker")

        monkeypatch.setattr(NeuralConceptLinker, "__init__", refuse)
        loaded_model, loaded_ontology, loaded_kb, vectors, metadata = (
            load_pipeline_parts(directory)
        )
        assert loaded_model.config == model.config
        assert [c.cid for c in loaded_ontology] == [c.cid for c in ontology]
        assert loaded_kb is not None and vectors is None
        assert metadata == {"seed": 3}

    def test_vectors_roundtrip(self, trained_stack, tmp_path):
        import numpy as np

        from repro.embeddings.similarity import WordVectors

        ontology, kb, model = trained_stack
        vectors = WordVectors(
            ["ckd", "chronic", "kidney"],
            np.eye(3),
            tag_words=["ckd"],
        )
        directory = tmp_path / "with-vectors"
        save_pipeline(directory, model, ontology, kb=kb, word_vectors=vectors)
        _, _, _, loaded_vectors, _ = load_pipeline(directory)
        assert loaded_vectors is not None
        assert loaded_vectors.tag_words == {"ckd"}
        np.testing.assert_array_equal(
            loaded_vectors.vector_of("chronic"), vectors.vector_of("chronic")
        )

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(DataError):
            load_pipeline(tmp_path / "nothing-here")
