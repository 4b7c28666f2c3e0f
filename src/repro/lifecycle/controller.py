"""The closed model-lifecycle loop: pool → retrain → compile → swap.

:class:`LifecycleController` wires the pieces of Appendix A's
expert-feedback loop around one live :class:`LinkingService`:

1. **Pool** — every served batch flows through :meth:`observe_results`;
   uncertain queries land in an :class:`~repro.lifecycle.pool.UncertaintyPool`.
2. **Resolve** — an expert maps a pooled query to a concept via
   :meth:`resolve`; the alias enters the knowledge base and a training
   pair is staged.
3. **Retrain** — once enough pairs accumulate (``retrain_after``),
   :meth:`retrain` fine-tunes a *clone* of the serving model on the
   staged pairs (the live weights never shift under traffic).
4. **Compile** — :meth:`compile_candidate` freezes the clone into a
   fresh format-3 artifact in the controller's work directory.
5. **Swap** — :meth:`stage` / :meth:`promote` hand the candidate to the
   :class:`~repro.lifecycle.swap.ArtifactSwapper`: shadow scoring on
   mirrored traffic, gated promotion, automatic rollback.

The controller is transport-agnostic: the HTTP admin endpoints, the
``repro lifecycle`` CLI drill, and tests all drive this one object.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.core.comaid import ComAid
from repro.core.config import LifecycleConfig
from repro.core.linker import LinkResult
from repro.core.trainer import ComAidTrainer
from repro.kb.knowledge_base import KnowledgeBase, TrainingPair
from repro.lifecycle.pool import UncertaintyPool
from repro.lifecycle.swap import ArtifactSwapper, LifecycleError
from repro.utils.errors import DataError
from repro.utils.logging import get_logger

LOGGER = get_logger("lifecycle.controller")


class LifecycleController:
    """Owns the pool, the staged training pairs, and the swapper."""

    def __init__(
        self,
        service: Any,
        trainer: ComAidTrainer,
        kb: KnowledgeBase,
        config: Optional[LifecycleConfig] = None,
        workdir: Union[str, Path, None] = None,
        active_dir: Optional[Path] = None,
        seed: int = 0,
    ) -> None:
        self.service = service
        self.trainer = trainer
        self.kb = kb
        self.config = config if config is not None else LifecycleConfig()
        self.workdir = Path(workdir) if workdir is not None else None
        self.pool = UncertaintyPool(
            capacity=self.config.pool_capacity,
            loss_threshold=self.config.loss_threshold,
            margin_threshold=self.config.margin_threshold,
            seed=seed,
        )
        self.swapper = ArtifactSwapper(
            service, config=self.config, active_dir=active_dir
        )
        self._lock = threading.Lock()
        self._staged_pairs: List[TrainingPair] = []
        self._resolved = 0
        self._retrains = 0
        self._compiles = 0
        self._candidate_model: Optional[ComAid] = None

    # -- traffic tap --------------------------------------------------------

    def observe_results(self, results: Sequence[LinkResult]) -> None:
        """Feed served results into the pool and the shadow mirror.

        Called from the service's batch path; must stay cheap and must
        never raise (the service wraps it defensively regardless).
        """
        for result in results:
            self.pool.observe(result)
            self.swapper.mirror(result)

    # -- expert feedback ----------------------------------------------------

    def resolve(self, query: str, cid: str) -> TrainingPair:
        """Expert verdict: ``query`` means concept ``cid``.

        :meth:`KnowledgeBase.add_feedback` registers the alias (so
        Phase I keyword retrieval benefits immediately, before any
        retrain); its training pair is staged for the next fine-tune.
        """
        pair = self.kb.add_feedback(query, cid)
        with self._lock:
            self._staged_pairs.append(pair)
            self._resolved += 1
        return pair

    @property
    def staged_pairs(self) -> int:
        with self._lock:
            return len(self._staged_pairs)

    @property
    def retrain_due(self) -> bool:
        """Whether enough resolved pairs have accumulated to retrain."""
        return self.staged_pairs >= self.config.retrain_after

    # -- retrain + compile --------------------------------------------------

    def retrain(
        self,
        epochs: Optional[int] = None,
        checkpoint_dir: Union[str, Path, None] = None,
        checkpoint_every: int = 0,
    ) -> ComAid:
        """Fine-tune a clone of the serving model on the staged pairs.

        The clone (not the live model) is adopted into the trainer so
        serving traffic keeps scoring against frozen weights while the
        background epochs run.  Staged pairs are consumed.
        """
        with self._lock:
            pairs = list(self._staged_pairs)
            self._staged_pairs = []
        if not pairs:
            raise DataError("no staged training pairs; resolve queries first")
        live = self.service.linker.model
        clone = ComAid(live.config, live.vocab, rng=0)
        clone.load_state_dict(live.state_dict())
        self.trainer.adopt(clone, self.kb.ontology)
        self.trainer.continue_training(
            pairs,
            epochs=epochs if epochs is not None else self.config.retrain_epochs,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
        )
        with self._lock:
            self._retrains += 1
            self._candidate_model = clone
        LOGGER.info(
            "retrained candidate on %d pairs (%d epochs)",
            len(pairs),
            epochs if epochs is not None else self.config.retrain_epochs,
        )
        return clone

    def compile_candidate(
        self, model: Optional[ComAid] = None
    ) -> Path:
        """Freeze the candidate model into a fresh format-3 artifact."""
        from repro.engine.compile import compile_artifact

        if self.workdir is None:
            raise LifecycleError(
                "controller has no workdir; pass one to compile candidates"
            )
        with self._lock:
            candidate = model if model is not None else self._candidate_model
            generation = self._compiles
            self._compiles += 1
        if candidate is None:
            raise LifecycleError("no retrained candidate model to compile")
        target = self.workdir / f"candidate-{generation:04d}"
        primary = self.service.linker
        compile_artifact(
            target,
            candidate,
            self.kb.ontology,
            kb=self.kb,
            index_aliases=primary.config.index_aliases,
            metadata={"lifecycle_generation": generation},
            index=self.config.compile_index,
        )
        with self._lock:
            self._candidate_model = candidate
        return target

    # -- swap delegation ----------------------------------------------------

    def stage(
        self,
        model: Optional[ComAid] = None,
        artifact_dir: Union[str, Path, None] = None,
        warm: bool = True,
    ) -> Dict[str, Any]:
        """Stage the candidate (defaults to the last retrain + compile)."""
        with self._lock:
            candidate = model if model is not None else self._candidate_model
        if candidate is None:
            raise LifecycleError("no candidate model; retrain first")
        if artifact_dir is None:
            artifact_dir = self.compile_candidate(candidate)
        return self.swapper.stage(candidate, Path(artifact_dir), warm=warm)

    def promote(self, force: bool = False) -> Dict[str, Any]:
        """Gate the staged candidate on its shadow report and flip."""
        return self.swapper.promote(force=force)

    def rollback(self, reason: str = "manual") -> Dict[str, Any]:
        """Discard the candidate / restore the previous generation."""
        return self.swapper.rollback(reason)

    # -- introspection / teardown -------------------------------------------

    def status(self) -> Dict[str, Any]:
        """One JSON-ready report for ``GET /v1/admin/lifecycle``."""
        with self._lock:
            staged = len(self._staged_pairs)
            resolved = self._resolved
            retrains = self._retrains
            compiles = self._compiles
            has_candidate = self._candidate_model is not None
        return {
            "state": self.swapper.state,
            "pool": self.pool.stats(),
            "staged_pairs": staged,
            "resolved": resolved,
            "retrains": retrains,
            "compiles": compiles,
            "retrain_due": staged >= self.config.retrain_after,
            "has_candidate_model": has_candidate,
            "swap": self.swapper.stats(),
            "config": {
                "retrain_after": self.config.retrain_after,
                "retrain_epochs": self.config.retrain_epochs,
                "min_shadow_samples": self.config.min_shadow_samples,
                "min_agreement": self.config.min_agreement,
                "max_log_prob_drop": self.config.max_log_prob_drop,
                "max_latency_ratio": self.config.max_latency_ratio,
            },
        }

    def close(self) -> None:
        """Release the swapper's candidate resources (idempotent)."""
        self.swapper.close()
