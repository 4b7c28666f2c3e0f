"""Figure 10 (Appendix A.2) — effect of expert feedback on the
learned representations.

The paper feeds three expert feedbacks (f1, f2, f3) one at a time,
retrains incrementally, and plots PCA projections of sampled concept
and word representations before/after each feedback, showing that

* representations shift after every feedback (the training data
  changed), and
* the *fed* concept's decode of its feedback text improves — the model
  absorbs the expert's implication.

This runner reproduces that protocol quantitatively: it reports, per
feedback step, the mean PCA-space displacement of tracked concept and
word representations, and the fed pair's loss before vs after.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.eval.experiments.scale import SMALL, ExperimentScale
from repro.eval.harness import build_pipeline
from repro.eval.reporting import emit
from repro.lifecycle.pool import UncertaintyPool
from repro.ontology.paths import structural_context
from repro.text.tokenize import tokenize
from repro.utils.rng import derive_rng, ensure_rng


def pca_project(matrix: np.ndarray, components: int = 2) -> np.ndarray:
    """Project rows of ``matrix`` onto their top principal components."""
    centered = matrix - matrix.mean(axis=0, keepdims=True)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    return centered @ vt[:components].T


@dataclass
class FeedbackStep:
    """Measurements for one feedback increment."""

    feedback_cid: str
    feedback_text: str
    loss_before: float
    loss_after: float
    concept_shift: float
    word_shift: float


def run(
    scale: ExperimentScale = SMALL,
    seed: int = 2018,
    dataset_name: str = "hospital-x-like",
    n_feedbacks: int = 3,
    retrain_epochs: int = 2,
    verbose: bool = True,
) -> Dict[str, object]:
    """Feed ``n_feedbacks`` expert labels one at a time, snapshotting.

    Feedback queries are drawn from held-out evaluation queries whose
    initial linking was wrong or uncertain under the serving pool's
    rule (:meth:`UncertaintyPool.classify`) — the queries Timon would
    pool.
    """
    generator = ensure_rng(seed)
    dataset = scale.dataset(dataset_name, rng=derive_rng(generator, dataset_name))
    pipeline = build_pipeline(
        dataset,
        model_config=scale.model_config(),
        training_config=scale.training_config(),
        cbow_config=scale.cbow_config(),
        rng=derive_rng(generator, "pipeline"),
    )
    model, trainer, linker = pipeline.model, pipeline.trainer, pipeline.linker

    pool = UncertaintyPool(loss_threshold=8.0)
    # Pool uncertain/wrong queries as feedback candidates.
    candidates: List[Tuple[str, str]] = []
    for query in dataset.queries[: scale.eval_queries]:
        result = linker.link(query.text)
        top = result.top
        if top is None or top.cid != query.cid or pool.classify(result) is not None:
            candidates.append((query.text, query.cid))
        if len(candidates) >= n_feedbacks:
            break
    if len(candidates) < n_feedbacks:
        raise RuntimeError(
            f"only {len(candidates)} uncertain queries available for feedback"
        )

    # Track the concepts and words around the first feedback's concept.
    tracked_cids = [cid for _, cid in candidates]
    siblings = dataset.ontology.children_of(
        dataset.ontology.parent_of(tracked_cids[0]).cid
    )
    tracked_cids.extend(
        concept.cid for concept in siblings if concept.cid not in tracked_cids
    )
    tracked_words = sorted(
        {
            word
            for _, cid in candidates
            for word in dataset.ontology.get(cid).words
            if word in model.vocab
        }
    )[:12]

    def concept_matrix() -> np.ndarray:
        rows = []
        for cid in tracked_cids:
            ids = model.words_to_ids(list(dataset.ontology.get(cid).words))
            rows.append(model.concept_representation(ids))
        return np.vstack(rows)

    def word_matrix() -> np.ndarray:
        ids = [model.vocab.id_of(word) for word in tracked_words]
        return model.embedding.weight.value[ids].copy()

    def pair_loss(text: str, cid: str) -> float:
        concept = dataset.ontology.get(cid)
        concept_ids = model.words_to_ids(list(concept.words))
        ancestors = [
            model.words_to_ids(list(c.words))
            for c in structural_context(
                dataset.ontology, cid, model.config.beta
            )[1:]
        ]
        query_ids = model.words_to_ids(tokenize(text))
        return model.pair_loss(concept_ids, ancestors, query_ids)

    steps: List[FeedbackStep] = []
    previous_concepts = concept_matrix()
    previous_words = word_matrix()
    for text, cid in candidates[:n_feedbacks]:
        loss_before = pair_loss(text, cid)
        pair = dataset.kb.add_feedback(text, cid)
        trainer.continue_training([pair], epochs=retrain_epochs)
        linker.swap_engine(model, None)  # recompile for the new weights
        loss_after = pair_loss(text, cid)

        current_concepts = concept_matrix()
        current_words = word_matrix()
        stacked = np.vstack([previous_concepts, current_concepts])
        projected = pca_project(stacked)
        half = len(tracked_cids)
        concept_shift = float(
            np.linalg.norm(projected[:half] - projected[half:], axis=1).mean()
        )
        stacked_words = np.vstack([previous_words, current_words])
        projected_words = pca_project(stacked_words)
        word_half = len(tracked_words)
        word_shift = float(
            np.linalg.norm(
                projected_words[:word_half] - projected_words[word_half:], axis=1
            ).mean()
        )
        steps.append(
            FeedbackStep(
                feedback_cid=cid,
                feedback_text=text,
                loss_before=loss_before,
                loss_after=loss_after,
                concept_shift=concept_shift,
                word_shift=word_shift,
            )
        )
        previous_concepts = current_concepts
        previous_words = current_words
        if verbose:
            emit(
                f"Fig10 feedback {len(steps)}: <{cid}, {text!r}> "
                f"loss {loss_before:.2f} -> {loss_after:.2f}, "
                f"concept shift {concept_shift:.4f}, word shift {word_shift:.4f}"
            )
    return {
        "steps": steps,
        "tracked_cids": tracked_cids,
        "tracked_words": tracked_words,
    }
