"""NCL — Neural Concept Linking for healthcare (SIGMOD'18 reproduction).

Reproduction of Dai et al., "Fine-grained Concept Linking using Neural
Networks in Healthcare", SIGMOD 2018.  The package implements the full
system from first principles on NumPy:

* :mod:`repro.core` — the COM-AID encode-decode network with text and
  structure attention, its trainer, and the two-phase online linker;
* :mod:`repro.lifecycle` — the expert-feedback loop: uncertainty pool,
  Timon review page, retrain and blue/green swap;
* :mod:`repro.engine` — precompiled concept artifacts and the concept
  engine that links over them;
* :mod:`repro.embeddings` — CBOW pre-training with concept-id
  injection;
* :mod:`repro.baselines` — the paper's five competitor methods;
* :mod:`repro.ontology` / :mod:`repro.kb` / :mod:`repro.datasets` —
  the concept-tree, knowledge-base, and synthetic-corpus substrates;
* :mod:`repro.nn` — the neural-network substrate (LSTM/attention with
  hand-derived backprop);
* :mod:`repro.eval` — metrics and per-figure experiment runners.

**Import from** :mod:`repro.api` — the stable, versioned public
surface::

    from repro.api import (hospital_x_like, pretrain_word_vectors,
                           ComAidConfig, TrainingConfig, LinkerConfig,
                           ComAidTrainer, NeuralConceptLinker)
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
