"""Integration-leaning tests for the trainer and the two-phase linker,
on the paper's Figure 1/3 fixture data (fast: tiny model)."""

import copy

import pytest

from repro.core.config import ComAidConfig, LinkerConfig, TrainingConfig
from repro.core.linker import NeuralConceptLinker
from repro.core.trainer import ComAidTrainer
from repro.kb.knowledge_base import KnowledgeBase, TrainingPair
from repro.utils.errors import DataError, NotFittedError


@pytest.fixture(scope="module")
def trained(request):
    # Build module-scoped fixtures manually to avoid retraining per test.
    from tests.conftest import figure1_ontology, figure3_kb  # noqa: F401

    from repro.kb.knowledge_base import KnowledgeBase
    from repro.ontology.concept import Concept
    from repro.ontology.ontology import Ontology

    ontology = Ontology()
    ontology.add(Concept("D50", "iron deficiency anemia"))
    ontology.add(
        Concept("D50.0", "iron deficiency anemia secondary to blood loss"),
        parent_cid="D50",
    )
    ontology.add(Concept("D53", "other nutritional anemias"))
    ontology.add(Concept("D53.0", "protein deficiency anemia"), parent_cid="D53")
    ontology.add(Concept("D53.2", "scorbutic anemia"), parent_cid="D53")
    ontology.add(Concept("N18", "chronic kidney disease"))
    ontology.add(
        Concept("N18.5", "chronic kidney disease, stage 5"), parent_cid="N18"
    )
    ontology.add(
        Concept("N18.9", "chronic kidney disease, unspecified"), parent_cid="N18"
    )
    ontology.add(Concept("R10", "abdominal and pelvic pain"))
    ontology.add(Concept("R10.0", "acute abdomen"), parent_cid="R10")
    ontology.add(Concept("R10.9", "unspecified abdominal pain"), parent_cid="R10")

    kb = KnowledgeBase(ontology)
    kb.add_alias("D50.0", "anemia, chronic blood loss")
    kb.add_alias("D50.0", "hemorrhagic anemia")
    kb.add_alias("D53.0", "amino acid deficiency anemia")
    kb.add_alias("D53.2", "vitamin c deficiency anemia")
    kb.add_alias("N18.5", "ckd stage 5")
    kb.add_alias("N18.5", "end stage renal disease")
    kb.add_alias("N18.9", "chronic renal disease")
    kb.add_alias("R10.0", "acute abdominal syndrome")
    kb.add_alias("R10.0", "pain abdomen")
    kb.add_alias("R10.9", "abdomen pain unspecified")

    trainer = ComAidTrainer(
        ComAidConfig(dim=12, beta=2),
        TrainingConfig(epochs=30, batch_size=4, optimizer="adagrad", learning_rate=0.2),
        rng=7,
    )
    model = trainer.fit(kb)
    return ontology, kb, trainer, model


class TestTrainer:
    def test_loss_decreases(self, trained):
        _, _, trainer, _ = trained
        losses = trainer.history.epoch_losses
        assert losses[-1] < losses[0]

    def test_history_counts_examples(self, trained):
        _, kb, trainer, _ = trained
        assert trainer.history.examples == kb.alias_count()

    def test_empty_kb_rejected(self, figure1_ontology):
        trainer = ComAidTrainer(ComAidConfig(dim=4, beta=1), TrainingConfig(epochs=1))
        with pytest.raises(DataError):
            trainer.fit(KnowledgeBase(figure1_ontology))

    def test_continue_training_requires_fit(self):
        trainer = ComAidTrainer(ComAidConfig(dim=4, beta=1))
        with pytest.raises(NotFittedError):
            trainer.continue_training(
                [TrainingPair(cid="X", canonical="a", alias="b")]
            )

    def test_continue_training_lowers_new_pair_loss(self, trained):
        ontology, kb, trainer, model = trained
        pair = TrainingPair(
            cid="D53.2",
            canonical="scorbutic anemia",
            alias="scurvy related anemia",
        )
        from repro.ontology.paths import structural_context
        from repro.text.tokenize import tokenize

        def loss():
            concept_ids = model.words_to_ids(tokenize(pair.canonical))
            ancestors = [
                model.words_to_ids(list(c.words))
                for c in structural_context(ontology, "D53.2", 2)[1:]
            ]
            return model.pair_loss(
                concept_ids, ancestors, model.words_to_ids(tokenize(pair.alias))
            )

        before = loss()
        trainer.continue_training([pair], epochs=3)
        assert loss() < before

    def test_learned_alias_scores_above_cross_concept(self, trained):
        ontology, kb, trainer, model = trained
        from repro.ontology.paths import structural_context

        def score(cid, query_words):
            concept = ontology.get(cid)
            ancestors = [
                model.words_to_ids(list(c.words))
                for c in structural_context(ontology, cid, 2)[1:]
            ]
            return model.log_prob(
                model.words_to_ids(list(concept.words)),
                ancestors,
                model.words_to_ids(query_words),
            )

        query = ["ckd", "stage", "5"]
        assert score("N18.5", query) > score("D53.2", query)
        assert score("N18.5", query) > score("R10.0", query)


class TestLinker:
    def test_links_paper_queries(self, trained):
        ontology, kb, trainer, model = trained
        linker = NeuralConceptLinker(
            model, ontology, LinkerConfig(k=5), kb=kb
        )
        result = linker.link("ckd stage 5")
        assert result.top is not None
        assert result.top.cid == "N18.5"

    def test_timing_covers_all_phases(self, trained):
        ontology, kb, trainer, model = trained
        linker = NeuralConceptLinker(model, ontology, LinkerConfig(k=5), kb=kb)
        result = linker.link("anemia blood loss")
        assert set(result.timing.seconds) == {"OR", "CR", "ED", "RT"}

    def test_rank_of(self, trained):
        ontology, kb, trainer, model = trained
        linker = NeuralConceptLinker(model, ontology, LinkerConfig(k=5), kb=kb)
        result = linker.link("vitamin c deficiency anemia")
        rank = result.rank_of("D53.2")
        assert rank is not None and rank <= 3
        assert result.rank_of("ZZZ") is None

    def test_no_match_returns_empty(self, trained):
        ontology, kb, trainer, model = trained
        linker = NeuralConceptLinker(model, ontology, LinkerConfig(k=5), kb=kb)
        result = linker.link("qqqqq zzzzz")
        assert result.ranked == ()
        assert result.top is None

    def test_warm_cache_counts(self, trained):
        ontology, kb, trainer, model = trained
        linker = NeuralConceptLinker(model, ontology, LinkerConfig(k=5), kb=kb)
        cached = linker.warm_cache()
        assert cached == len(ontology.fine_grained())

    def test_swap_engine_recompiles_after_retrain(self, trained):
        ontology, kb, trainer, model = trained
        retrained = copy.deepcopy(model)
        linker = NeuralConceptLinker(
            retrained, ontology, LinkerConfig(k=5), kb=kb
        )
        stale = linker.model_fingerprint
        # An in-place retrain: the weights change under the linker.
        for _, parameter in retrained.named_parameters():
            parameter.value += 0.01
        previous_model, previous_engine = linker.swap_engine(retrained, None)
        assert previous_model is retrained
        assert linker.engine is not previous_engine
        assert linker.model_fingerprint != stale
        fresh = NeuralConceptLinker(
            retrained, ontology, LinkerConfig(k=5), kb=kb
        )
        assert [(c.cid, c.log_prob) for c in linker.link("anemia").ranked] == [
            (c.cid, c.log_prob) for c in fresh.link("anemia").ranked
        ]

    def test_fully_covered_query_scores_zero(self, trained):
        ontology, kb, trainer, model = trained
        linker = NeuralConceptLinker(model, ontology, LinkerConfig(k=5), kb=kb)
        result = linker.link("scorbutic anemia")
        top = result.top
        assert top is not None
        assert top.cid == "D53.2"
        assert top.log_prob == 0.0  # all words shared -> removed

    def test_k_override(self, trained):
        ontology, kb, trainer, model = trained
        linker = NeuralConceptLinker(model, ontology, LinkerConfig(k=5), kb=kb)
        result = linker.link("anemia", k=2)
        assert len(result.ranked) <= 2
