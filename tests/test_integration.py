"""End-to-end integration tests at tiny scale.

Exercises the complete NCL lifecycle the way a deployment would:
generate data → pre-train → train → link → pool feedback → expert
review via Timon artifacts → incremental retrain → re-link.
"""

import pytest

from repro.api import (
    ComAidConfig,
    ComAidTrainer,
    LinkerConfig,
    NeuralConceptLinker,
    TrainingConfig,
    UncertaintyPool,
    hospital_x_like,
    pretrain_word_vectors,
)
from repro.lifecycle.timon import parse_review_csv, render_review_page
from repro.embeddings import CbowConfig
from repro.eval.metrics import top1_accuracy
from repro.nn.serialization import load_module, save_module
from repro.core.comaid import ComAid


@pytest.fixture(scope="module")
def stack():
    dataset = hospital_x_like(
        rng=21, categories_per_family=2, leaves_per_category=3, query_count=120
    )
    vectors = pretrain_word_vectors(
        dataset.corpus,
        CbowConfig(dim=12, window=4, epochs=8, negatives=5, subsample=3e-3),
        rng=2,
    )
    trainer = ComAidTrainer(
        ComAidConfig(dim=12, beta=2),
        TrainingConfig(epochs=6, batch_size=8, optimizer="adagrad",
                       learning_rate=0.15),
        rng=4,
    )
    model = trainer.fit(dataset.kb, word_vectors=vectors)
    linker = NeuralConceptLinker(
        model, dataset.ontology, LinkerConfig(k=10),
        kb=dataset.kb, word_vectors=vectors,
    )
    return dataset, vectors, trainer, model, linker


@pytest.mark.slow
class TestEndToEnd:
    def test_linking_clearly_beats_chance(self, stack):
        dataset, _, _, _, linker = stack
        queries = dataset.queries[:60]
        ranked = [
            [c.cid for c in linker.link(q.text).ranked] for q in queries
        ]
        accuracy = top1_accuracy(ranked, [q.cid for q in queries])
        chance = 1.0 / len(dataset.ontology.fine_grained())
        assert accuracy > 10 * chance
        assert accuracy > 0.3

    def test_model_roundtrips_through_disk(self, stack, tmp_path):
        dataset, vectors, _, model, linker = stack
        path = tmp_path / "model.npz"
        save_module(model, path)
        clone = ComAid(model.config, model.vocab, rng=999)
        load_module(clone, path)
        clone_linker = NeuralConceptLinker(
            clone, dataset.ontology, LinkerConfig(k=10),
            kb=dataset.kb, word_vectors=vectors,
        )
        for query in dataset.queries[:5]:
            original = linker.link(query.text)
            restored = clone_linker.link(query.text)
            assert [c.cid for c in original.ranked] == [
                c.cid for c in restored.ranked
            ]

    def test_feedback_cycle_through_timon_artifacts(self, stack, tmp_path):
        dataset, _, trainer, _, linker = stack
        pool = UncertaintyPool(loss_threshold=8.0)
        pooled = []
        for query in dataset.queries[:40]:
            if pool.observe(linker.link(query.text)) is not None:
                pooled.append(query)
            if len(pooled) >= 3:
                break
        assert pooled, "no query among the first 40 pooled"
        # Render the drained pool as a Timon page, then simulate the
        # expert's CSV export.
        items = pool.drain()
        page_path = tmp_path / "timon.html"
        rendered = render_review_page(items, dataset.ontology, page_path)
        assert rendered == len(items) > 0
        assert len(pool) == 0
        csv_path = tmp_path / "decisions.csv"
        csv_path.write_text(
            "".join(f"{q.text},{q.cid}\n" for q in pooled), encoding="utf-8"
        )
        resolved, rejected = parse_review_csv(dataset.kb.add_feedback, csv_path)
        assert rejected == []
        assert len(resolved) == len(pooled)
        # Incremental retraining consumes the feedback.
        trainer.continue_training(resolved, epochs=2)
        linker.swap_engine(linker.model, None)  # recompile for new weights
        result = linker.link(pooled[0].text)
        assert result.ranked  # pipeline still healthy after retrain

    def test_deterministic_pipeline(self):
        def build_and_link():
            dataset = hospital_x_like(
                rng=33, categories_per_family=2, leaves_per_category=2,
                query_count=40,
            )
            vectors = pretrain_word_vectors(
                dataset.corpus,
                CbowConfig(dim=8, window=3, epochs=3, negatives=3),
                rng=2,
            )
            trainer = ComAidTrainer(
                ComAidConfig(dim=8, beta=1),
                TrainingConfig(epochs=2, batch_size=8),
                rng=4,
            )
            model = trainer.fit(dataset.kb, word_vectors=vectors)
            linker = NeuralConceptLinker(
                model, dataset.ontology, LinkerConfig(k=5),
                kb=dataset.kb, word_vectors=vectors,
            )
            return [
                [c.cid for c in linker.link(q.text).ranked]
                for q in dataset.queries[:10]
            ]

        assert build_and_link() == build_and_link()
