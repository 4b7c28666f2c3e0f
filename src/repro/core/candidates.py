"""Phase-I candidate generation (paper Section 5).

A lightweight TF-IDF keyword matcher over the fine-grained concepts:
each concept's document is its canonical description (optionally
extended with its knowledge-base aliases), and a query retrieves the
top-``k`` cosine-similar concepts.  The matcher also exposes the
ontology word vocabulary Ω that query rewriting replaces OOV words
into.

Retrieval runs on one array-backed
:class:`~repro.retrieval.inverted.InvertedIndex`, whose hits are
bit-identical to the reference scan ``TfIdfIndex.search``.  The concept
engine (:mod:`repro.engine.concept_engine`) builds its generator from
an artifact's frozen documents, reusing the artifact's precompiled
index when it has one (:meth:`CandidateGenerator.from_documents`), and
the linker adopts that generator as its own.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from repro.kb.knowledge_base import KnowledgeBase
from repro.ontology.ontology import Ontology
from repro.retrieval.inverted import InvertedIndex
from repro.text.tokenize import tokenize
from repro.utils.errors import ConfigurationError


def concept_documents(
    ontology: Ontology,
    kb: Optional[KnowledgeBase] = None,
    index_aliases: bool = True,
    restrict_to: Optional[Sequence[str]] = None,
) -> List[Tuple[str, List[str]]]:
    """The Phase-I index documents: one per fine-grained concept.

    Each document is the concept's canonical-description words,
    extended with its knowledge-base alias tokens when
    ``index_aliases``.  Exposed separately from the generator so the
    compile step (:mod:`repro.engine.compile`) can freeze the exact
    documents a deployment was indexed over into the artifact.
    """
    leaves = ontology.fine_grained()
    if restrict_to is not None:
        wanted = set(restrict_to)
        leaves = tuple(leaf for leaf in leaves if leaf.cid in wanted)
    documents: List[Tuple[str, List[str]]] = []
    for leaf in leaves:
        tokens = list(leaf.words)
        if kb is not None and index_aliases:
            for alias in kb.aliases_of(leaf.cid):
                tokens.extend(tokenize(alias))
        documents.append((leaf.cid, tokens))
    return documents


class CandidateGenerator:
    """Top-k fine-grained concept retrieval by TF-IDF cosine."""

    def __init__(
        self,
        ontology: Ontology,
        kb: Optional[KnowledgeBase] = None,
        index_aliases: bool = True,
        restrict_to: Optional[Sequence[str]] = None,
    ) -> None:
        """Index the ontology's fine-grained concepts.

        ``restrict_to`` limits the index to the named concepts (in
        ontology order).
        """
        documents = concept_documents(
            ontology, kb=kb, index_aliases=index_aliases, restrict_to=restrict_to
        )
        self._finish_init(ontology, documents, None)

    @classmethod
    def from_documents(
        cls,
        ontology: Ontology,
        documents: Sequence[Tuple[str, Sequence[str]]],
        index: Optional[InvertedIndex] = None,
    ) -> "CandidateGenerator":
        """Build a generator over pre-frozen index documents.

        The concept engine constructs its generator from the artifact's
        frozen documents (not from live ontology + KB state), so index
        contents can never drift from the precomputed encodings they
        were compiled with.  ``index`` is the artifact's precompiled
        inverted index over exactly these documents; without one, it is
        built here.
        """
        generator = cls.__new__(cls)
        generator._finish_init(ontology, list(documents), index)
        return generator

    def _finish_init(
        self,
        ontology: Ontology,
        documents: List[Tuple[str, Sequence[str]]],
        index: Optional[InvertedIndex],
    ) -> None:
        if not documents:
            raise ConfigurationError("no fine-grained concepts to index")
        self._omega: Set[str] = set()
        for cid, _ in documents:
            self._omega.update(ontology.get(cid).words)
        if index is None:
            index = InvertedIndex.build(documents)
        self._index = index
        self._leaf_cids = tuple(cid for cid, _ in documents)

    @property
    def omega(self) -> Set[str]:
        """The ontology description vocabulary Ω (rewrite targets)."""
        return set(self._omega)

    @property
    def index(self) -> InvertedIndex:
        """The exact Phase-I inverted index."""
        return self._index

    @property
    def indexed_cids(self) -> Tuple[str, ...]:
        """The indexed concept ids, in ontology (tie-break) order."""
        return self._leaf_cids

    def generate(self, tokens: Sequence[str], k: int) -> List[Tuple[str, float]]:
        """Top-``k`` candidate cids with their keyword-match scores
        (:meth:`InvertedIndex.top_k`)."""
        return self._index.top_k(tokens, k=k)

    def postings_examined(self, tokens: Sequence[str]) -> int:
        """Inverted-index work for this query (Figure 11 CR analysis)."""
        return self._index.postings_examined(tokens)
