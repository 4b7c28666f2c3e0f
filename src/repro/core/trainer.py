"""COM-AID training (paper Section 4.2, refinement phase).

Builds the model vocabulary, optionally seeds the embedding table from
CBOW pre-training, constructs the ⟨canonical, alias⟩ example set from
the knowledge base, and minimises the negative log-likelihood (Eq. 10)
with mini-batch gradient descent and global-norm clipping.

The trainer also supports *incremental* training on newly collected
feedback pairs (Appendix A): :meth:`continue_training` runs additional
epochs over extra examples without re-initialising parameters, which is
what the lifecycle controller's retrain and the Figure 10 runner call.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.checkpoint import (
    CheckpointState,
    load_checkpoint,
    save_checkpoint,
    snapshot_from_trainer,
)
from repro.core.comaid import ComAid
from repro.core.config import ComAidConfig, TrainingConfig
from repro.kb.knowledge_base import KnowledgeBase, TrainingPair
from repro.nn.clip import clip_global_norm
from repro.obs.runlog import RunLogger, rng_fingerprint
from repro.nn.optim import make_optimizer
from repro.embeddings.similarity import WordVectors
from repro.ontology.ontology import Ontology
from repro.ontology.paths import structural_context
from repro.text.tokenize import tokenize
from repro.text.vocab import Vocabulary
from repro.utils.errors import ConfigurationError, DataError, NotFittedError
from repro.utils.faults import probe
from repro.utils.logging import get_logger
from repro.utils.rng import RngLike, derive_rng, ensure_rng
from repro.utils.timing import Stopwatch

logger = get_logger("core.trainer")


@dataclass
class TrainingHistory:
    """Per-epoch mean losses and wall-clock timings."""

    epoch_losses: List[float] = field(default_factory=list)
    seconds: float = 0.0
    examples: int = 0

    def final_loss(self) -> float:
        """Mean token loss of the last recorded epoch."""
        if not self.epoch_losses:
            raise NotFittedError("no training epochs recorded")
        return self.epoch_losses[-1]


@dataclass
class _Example:
    """A fully id-encoded training pair."""

    concept_ids: List[int]
    ancestor_ids: List[List[int]]
    query_ids: List[int]


class ComAidTrainer:
    """Train :class:`ComAid` from a knowledge base.

    Usage::

        trainer = ComAidTrainer(ComAidConfig(dim=24), TrainingConfig(), rng=7)
        model = trainer.fit(kb, word_vectors=vectors)
    """

    def __init__(
        self,
        model_config: ComAidConfig,
        training_config: Optional[TrainingConfig] = None,
        rng: RngLike = None,
    ) -> None:
        self.model_config = model_config
        self.training_config = (
            training_config if training_config is not None else TrainingConfig()
        )
        self._rng = ensure_rng(rng)
        self.model: Optional[ComAid] = None
        self.history = TrainingHistory()
        self._ontology: Optional[Ontology] = None
        self._ancestor_ids: Dict[str, List[List[int]]] = {}

    # -- vocabulary -----------------------------------------------------------

    def build_vocabulary(
        self,
        kb: KnowledgeBase,
        word_vectors: Optional[WordVectors] = None,
    ) -> Vocabulary:
        """Model vocabulary Ω′: concept words, alias words, and (when
        pre-trained vectors are supplied) every pre-training word, so
        unlabeled-corpus-only words like ``dm`` keep their embeddings.
        """
        sequences: List[Tuple[str, ...]] = []
        for concept in kb.ontology:
            sequences.append(concept.words)
        for _, alias in kb.labeled_snippets():
            sequences.append(tuple(tokenize(alias)))
        if word_vectors is not None:
            tags = word_vectors.tag_words
            sequences.extend(
                (word,) for word in word_vectors.words if word not in tags
            )
        return Vocabulary.from_corpus(sequences)

    # -- example construction ----------------------------------------------------

    def _ancestors_for(self, model: ComAid, ontology: Ontology, cid: str) -> List[List[int]]:
        """Encoded ancestor descriptions along the β-path (Def. 4.1)."""
        if not self.model_config.use_structure_attention:
            return []
        cached = self._ancestor_ids.get(cid)
        if cached is not None:
            return cached
        path = structural_context(ontology, cid, self.model_config.beta)
        ancestor_ids = [
            model.words_to_ids(list(concept.words)) for concept in path[1:]
        ]
        self._ancestor_ids[cid] = ancestor_ids
        return ancestor_ids

    def _encode_pairs(
        self, model: ComAid, ontology: Ontology, pairs: Sequence[TrainingPair]
    ) -> List[_Example]:
        examples: List[_Example] = []
        for pair in pairs:
            concept_ids = model.words_to_ids(tokenize(pair.canonical))
            query_ids = model.words_to_ids(tokenize(pair.alias))
            if not concept_ids or not query_ids:
                continue
            examples.append(
                _Example(
                    concept_ids=concept_ids,
                    ancestor_ids=self._ancestors_for(model, ontology, pair.cid),
                    query_ids=query_ids,
                )
            )
        if not examples:
            raise DataError("no usable training pairs after encoding")
        return examples

    # -- training --------------------------------------------------------------

    def fit(
        self,
        kb: KnowledgeBase,
        word_vectors: Optional[WordVectors] = None,
        pairs: Optional[Sequence[TrainingPair]] = None,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        checkpoint_every: int = 0,
        resume_from: Optional[Union[str, Path]] = None,
        run_dir: Optional[Union[str, Path]] = None,
        run_id: Optional[str] = None,
    ) -> ComAid:
        """Train a fresh model on the knowledge base's alias pairs.

        ``word_vectors`` seeds the embedding table (the pre-training
        hand-off); omit it to reproduce the COM-AID⁻o1 ablation.
        ``pairs`` overrides the training set (robustness studies).

        With ``checkpoint_dir`` and ``checkpoint_every=N`` an atomic
        checkpoint (parameters, optimiser state, RNG streams, history)
        is written after every N-th epoch.  ``resume_from`` continues a
        killed run from a checkpoint directory (or a checkpoint root,
        resuming its newest complete checkpoint): given the same
        knowledge base, configs, and seed, the resumed run reproduces
        the uninterrupted run's epoch losses and final parameters
        bit-for-bit (wall-clock ``history.seconds`` is the one field
        that legitimately differs).

        ``run_dir`` enables training telemetry: per-epoch JSONL records
        (loss, token throughput, gradient norms, checkpoint wall time,
        RNG stream fingerprint) land under ``run_dir/<run_id>/`` as the
        run progresses, for ``repro runs`` to list and diff.
        """
        if checkpoint_every < 0:
            raise ConfigurationError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        if checkpoint_every > 0 and checkpoint_dir is None:
            raise ConfigurationError(
                "checkpoint_every > 0 requires a checkpoint_dir"
            )
        vocab = self.build_vocabulary(kb, word_vectors)
        model = ComAid(
            self.model_config, vocab, rng=derive_rng(self._rng, "model-init")
        )
        if word_vectors is not None:
            self._seed_embeddings(model, word_vectors)
        self.model = model
        self._ontology = kb.ontology
        self._ancestor_ids = {}
        training_pairs = list(pairs) if pairs is not None else kb.training_pairs()
        if not training_pairs:
            raise DataError("knowledge base has no training pairs")
        examples = self._encode_pairs(model, kb.ontology, training_pairs)
        self.history = TrainingHistory(examples=len(examples))
        resume_state: Optional[CheckpointState] = None
        if resume_from is not None:
            resume_state = self._validate_resume(
                load_checkpoint(resume_from), len(examples)
            )
            model.load_state_dict(resume_state.model_state)
            self.history = TrainingHistory(
                epoch_losses=list(resume_state.epoch_losses),
                seconds=resume_state.seconds,
                examples=len(examples),
            )
            logger.info(
                "resuming from epoch %d/%d",
                resume_state.epoch,
                self.training_config.epochs,
            )
        runlog: Optional[RunLogger] = None
        if run_dir is not None:
            runlog = RunLogger(
                run_dir,
                run_id=run_id,
                meta={
                    "model_config": dataclasses.asdict(self.model_config),
                    "training_config": dataclasses.asdict(
                        self.training_config
                    ),
                    "examples": len(examples),
                    "pretrained_embeddings": word_vectors is not None,
                    "resumed_epoch": (
                        resume_state.epoch if resume_state is not None else 0
                    ),
                    "rng_fingerprint_start": rng_fingerprint(self._rng),
                },
            )
        try:
            self._run_epochs(
                examples,
                self.training_config.epochs,
                resume_state=resume_state,
                checkpoint_dir=checkpoint_dir,
                checkpoint_every=checkpoint_every,
                runlog=runlog,
            )
            if runlog is not None:
                runlog.finish(
                    epochs=len(self.history.epoch_losses),
                    final_loss=(
                        self.history.epoch_losses[-1]
                        if self.history.epoch_losses
                        else None
                    ),
                    seconds=self.history.seconds,
                    examples=self.history.examples,
                )
        finally:
            if runlog is not None:
                runlog.close()
        return model

    def _validate_resume(
        self, state: CheckpointState, example_count: int
    ) -> CheckpointState:
        """Refuse checkpoints from a different config or training set."""
        if state.model_config is not None:
            current = dataclasses.asdict(self.model_config)
            if state.model_config != current:
                raise ConfigurationError(
                    "checkpoint was taken with a different model config: "
                    f"{state.model_config} != {current}"
                )
        if state.training_config is not None:
            current = dataclasses.asdict(self.training_config)
            if state.training_config != current:
                raise ConfigurationError(
                    "checkpoint was taken with a different training config: "
                    f"{state.training_config} != {current}"
                )
        if state.examples and state.examples != example_count:
            raise DataError(
                f"checkpoint trained on {state.examples} examples but the "
                f"current knowledge base encodes {example_count}"
            )
        if state.epoch > self.training_config.epochs:
            raise ConfigurationError(
                f"checkpoint is at epoch {state.epoch}, beyond the requested "
                f"{self.training_config.epochs} epochs"
            )
        return state

    def adopt(self, model: ComAid, ontology: Ontology) -> None:
        """Attach an externally built model for incremental training.

        The lifecycle controller retrains a *clone* of the serving
        model (the live weights must not shift under traffic), and the
        CLI retrains models loaded from a saved pipeline — neither came
        out of this trainer's :meth:`fit`.  Adopting one makes
        :meth:`continue_training` legal on it; the per-concept ancestor
        cache is reset because the adopted model's id space may differ.
        """
        if model.config != self.model_config:
            raise ConfigurationError(
                "adopted model's architecture config does not match the "
                f"trainer's: {model.config} != {self.model_config}"
            )
        self.model = model
        self._ontology = ontology
        self._ancestor_ids = {}

    def continue_training(
        self,
        extra_pairs: Sequence[TrainingPair],
        epochs: int = 1,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        checkpoint_every: int = 0,
    ) -> None:
        """Incrementally train the fitted model on ``extra_pairs``.

        This is the feedback loop's retraining step (Appendix A):
        parameters are *not* re-initialised, so representation shifts
        can be observed between snapshots (Figure 10).  With
        ``checkpoint_dir``/``checkpoint_every`` the incremental epochs
        checkpoint atomically exactly like :meth:`fit` — the lifecycle
        controller's background retrain survives a crash the same way a
        fresh training run does.
        """
        if self.model is None or self._ontology is None:
            raise NotFittedError("continue_training requires a fitted model")
        if checkpoint_every > 0 and checkpoint_dir is None:
            raise ConfigurationError(
                "checkpoint_every > 0 requires a checkpoint_dir"
            )
        examples = self._encode_pairs(self.model, self._ontology, extra_pairs)
        self._run_epochs(
            examples,
            epochs,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
        )

    def _seed_embeddings(self, model: ComAid, vectors: WordVectors) -> None:
        words = [word for word in model.vocab.words if word in vectors]
        if not words:
            logger.warning("no vocabulary overlap with pre-trained vectors")
            return
        matrix = vectors.as_matrix(words)
        if matrix.shape[1] != model.config.dim:
            raise DataError(
                f"pre-trained vectors have dim {matrix.shape[1]}, model "
                f"expects {model.config.dim}"
            )
        ids = [model.vocab.id_of(word) for word in words]
        model.embedding.load_pretrained(matrix, ids)
        logger.info("seeded %d/%d embeddings from pre-training", len(ids), len(model.vocab))

    def _run_epochs(
        self,
        examples: List[_Example],
        epochs: int,
        resume_state: Optional[CheckpointState] = None,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        checkpoint_every: int = 0,
        runlog: Optional[RunLogger] = None,
    ) -> None:
        assert self.model is not None
        model = self.model
        settings = self.training_config
        optimizer = make_optimizer(
            settings.optimizer,
            model.parameters().values(),
            lr=settings.learning_rate,
        )
        if settings.sampled_softmax > 0:
            model.set_output_sampler(
                settings.sampled_softmax,
                rng=derive_rng(self._rng, "output-sampler"),
            )
        start_epoch = 0
        order = np.arange(len(examples))
        if resume_state is not None:
            start_epoch = resume_state.epoch
            optimizer.load_state_dict(resume_state.optimizer_state)
            # Epoch shuffles compose in place, so the permutation as of
            # the checkpointed epoch must be restored, not replayed.
            order = np.asarray(resume_state.order, dtype=order.dtype).copy()
            if len(order) != len(examples):
                raise DataError(
                    f"checkpoint order has {len(order)} entries for "
                    f"{len(examples)} examples"
                )
            if resume_state.sampler_rng_state is not None:
                model.restore_output_sampler_rng(resume_state.sampler_rng_state)
            # Restore the shuffle stream last: the derive_rng calls above
            # advanced the parent generator exactly as the original run
            # did before its first epoch.
            if resume_state.rng_state is not None:
                self._rng.bit_generator.state = resume_state.rng_state
        watch = Stopwatch().start()
        for epoch in range(start_epoch, epochs):
            epoch_started = watch.elapsed
            if settings.shuffle:
                self._rng.shuffle(order)
            epoch_loss = 0.0
            token_count = 0
            grad_norm_sum = 0.0
            grad_norm_max = 0.0
            batch_count = 0
            for start in range(0, len(order), settings.batch_size):
                batch = order[start : start + settings.batch_size]
                model.zero_grad()
                scale = 1.0 / len(batch)
                for index in batch:
                    example = examples[int(index)]
                    cache = model.forward(
                        example.concept_ids,
                        example.ancestor_ids,
                        example.query_ids,
                    )
                    model.backward(cache, scale=scale)
                    epoch_loss += cache.loss
                    token_count += len(example.query_ids) + 1
                grad_norm = clip_global_norm(
                    model.parameters().values(), settings.clip_norm
                )
                grad_norm_sum += grad_norm
                grad_norm_max = max(grad_norm_max, grad_norm)
                batch_count += 1
                optimizer.step()
            mean_loss = epoch_loss / max(token_count, 1)
            self.history.epoch_losses.append(mean_loss)
            logger.info(
                "epoch %d/%d mean token loss %.4f", epoch + 1, epochs, mean_loss
            )
            checkpoint_seconds = 0.0
            if (
                checkpoint_dir is not None
                and checkpoint_every > 0
                and (epoch + 1) % checkpoint_every == 0
            ):
                checkpoint_watch = Stopwatch().start()
                save_checkpoint(
                    checkpoint_dir,
                    snapshot_from_trainer(self, optimizer, epoch + 1, order),
                )
                checkpoint_seconds = checkpoint_watch.stop()
            if runlog is not None:
                epoch_seconds = watch.elapsed - epoch_started
                runlog.log_epoch(
                    epoch + 1,
                    mean_loss=mean_loss,
                    tokens=token_count,
                    seconds=epoch_seconds,
                    tokens_per_s=(
                        token_count / epoch_seconds if epoch_seconds > 0 else 0.0
                    ),
                    grad_norm_mean=(
                        grad_norm_sum / batch_count if batch_count else 0.0
                    ),
                    grad_norm_max=grad_norm_max,
                    checkpoint_s=checkpoint_seconds,
                    rng=rng_fingerprint(self._rng),
                )
            probe("trainer.epoch_end")
        self.history.seconds += watch.stop()
        if settings.sampled_softmax > 0:
            model.clear_output_sampler()
