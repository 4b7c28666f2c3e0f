"""The paper's primary contribution: COM-AID and the NCL pipeline.

* :class:`ComAid` — the COMposite AttentIonal encode-Decode network
  (paper Section 4): concept encoder, text-structure duet decoder, and
  the ablation switches for COM-AID⁻c / COM-AID⁻w / COM-AID⁻wc.
* :class:`ComAidTrainer` — MLE training on ⟨canonical, alias⟩ pairs
  (Section 4.2) with optional CBOW pre-training hand-off.
* :class:`NeuralConceptLinker` — the two-phase online linker
  (Section 5): TF-IDF candidate generation with query rewriting, then
  COM-AID re-ranking.

The Appendix-A feedback loop (uncertainty pool, Timon review page,
retrain and swap) lives in :mod:`repro.lifecycle`.
"""

from repro.core.checkpoint import (
    CheckpointState,
    latest_checkpoint,
    load_checkpoint,
    prune_checkpoints,
    save_checkpoint,
    verify_checkpoint,
)
from repro.core.comaid import ComAid
from repro.core.config import ComAidConfig, LinkerConfig, TrainingConfig, PAPER_DEFAULTS
from repro.core.candidates import CandidateGenerator
from repro.core.linker import LinkResult, NeuralConceptLinker
from repro.core.persistence import (
    load_pipeline,
    save_pipeline,
    verify_pipeline,
)
from repro.core.rewriter import QueryRewriter
from repro.core.trainer import ComAidTrainer

__all__ = [
    "CandidateGenerator",
    "CheckpointState",
    "ComAid",
    "ComAidConfig",
    "ComAidTrainer",
    "latest_checkpoint",
    "LinkResult",
    "LinkerConfig",
    "load_checkpoint",
    "load_pipeline",
    "prune_checkpoints",
    "save_checkpoint",
    "save_pipeline",
    "verify_checkpoint",
    "verify_pipeline",
    "PAPER_DEFAULTS",
    "QueryRewriter",
    "TrainingConfig",
]
