"""Sublinear Phase-I retrieval over a compiled concept artifact.

The original Phase-I path (:class:`repro.text.tfidf.TfIdfIndex`) scores
every document sharing a term with the query inside a Python dict loop
— O(matching documents) of interpreter work per query, which dominates
CR time once the ontology passes ~10⁴ concepts and is hopeless at the
ROADMAP's million-concept north star.  This package is the retrieval
layer that replaces that scan with sublinear (or at least
constant-factor-collapsed) structures while keeping the exact scan as
the always-available reference path:

* :mod:`repro.retrieval.inverted` — an array-backed inverted index
  with precomputed TF-IDF postings and document norms.  Scoring is
  vectorised NumPy over the posting lists; the cosines (and tie order)
  of returned hits are **bit-identical** to ``TfIdfIndex.search``, so
  it is the exact scan without perturbing a single ranking.  Every
  linker's ``exact`` Phase I searches it.
* :mod:`repro.retrieval.ann` — a pure-NumPy IVF (inverted-file)
  approximate nearest-neighbour index over the artifact's L2-normalised
  concept encoder final states: k-means centroids trained offline at
  ``repro compile`` time, ``nprobe`` nearest clusters probed per query.
* :mod:`repro.retrieval.hybrid` — the fusion layer behind ``hybrid``
  retrieval: sparse and dense candidate sets are unioned and re-scored
  with *both* signals by reciprocal-rank fusion, the flair
  ``BiomedicalEntityLinker`` sparse+dense recipe in miniature.

``LinkerConfig.retrieval_mode`` selects ``exact`` (the default and the
correctness oracle) or ``hybrid``;
:class:`repro.engine.concept_engine.ConceptEngine` dispatches Phase I
on it.  Dense retrieval alone is not a mode: on the perfbench query set
it was less accurate than ``exact`` and slower (DESIGN.md §5.6).
"""

from repro.retrieval.ann import DenseIndex
from repro.retrieval.hybrid import HybridRetriever, fuse_candidates
from repro.retrieval.inverted import InvertedIndex

__all__ = [
    "DenseIndex",
    "HybridRetriever",
    "InvertedIndex",
    "fuse_candidates",
]
