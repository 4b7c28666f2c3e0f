"""Linking engine over precompiled concept artifacts.

The paper's online cost analysis (Section 5, Figure 11) shows the
encode-decode forward passes dominating linking time, and its target
deployments (full SNOMED/ICD-scale ontologies) are orders of magnitude
larger than the fixtures — per-query concept encoding does not survive
that scale.  This package moves every per-concept computation offline
(Section 5.1):

* :mod:`repro.engine.compile` — encode every fine-grained concept once
  (final encoder states ``h_c``, the per-word text-attention memories,
  Def.-4.1 structure memories, and the Phase-I TF-IDF
  documents/statistics): in memory (``build_artifact``), or into a
  versioned, checksummed format-3 slab artifact written through the
  atomic persistence layer (``repro compile``; ``write_artifact``
  writes one already built);
* :mod:`repro.engine.concept_engine` — one Phase-I inverted index over
  the artifact's frozen documents and one lock-step Phase-II decode
  over zero-copy views into its encoding slab.  Every linker links
  through one.

Rankings and log-probs match a per-candidate decode with independently
computed encodings to ≤1e-9 (``tests/core/phase2_oracle.py``).
"""

from repro.engine.compile import (
    ARTIFACT_FORMAT,
    ConceptArtifact,
    build_artifact,
    compile_artifact,
    load_artifact,
    verify_artifact,
    write_artifact,
)
from repro.engine.concept_engine import ConceptEngine

__all__ = [
    "ARTIFACT_FORMAT",
    "ConceptArtifact",
    "ConceptEngine",
    "build_artifact",
    "compile_artifact",
    "load_artifact",
    "verify_artifact",
    "write_artifact",
]
