"""Concept knowledge base: aliases and labeled training pairs.

Paper Section 4.2 (refinement phase): the training data are
``⟨d^c, d^c_j⟩`` pairs, where ``d^c`` is the canonical description and
``d^c_j`` an alias — from the knowledge base or from collected expert
feedback.  Footnote 9 notes the canonical descriptions themselves are
excluded from the alias lists because a self-pair
``⟨acute abdomen, acute abdomen⟩`` contributes nothing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.ontology.ontology import Ontology
from repro.text.tokenize import normalize_text
from repro.utils.errors import DataError

PathLike = Union[str, Path]


@dataclass(frozen=True)
class TrainingPair:
    """One labeled example: decode ``alias`` from ``canonical`` of ``cid``."""

    cid: str
    canonical: str
    alias: str


class KnowledgeBase:
    """Aliases per concept, validated against an :class:`Ontology`.

    The knowledge base rejects aliases for unknown concepts, normalises
    alias text the same way queries are normalised, drops duplicates,
    and silently skips aliases identical to the canonical description
    (per the paper's footnote 9).
    """

    def __init__(self, ontology: Ontology) -> None:
        self._ontology = ontology
        self._aliases: Dict[str, List[str]] = {}

    @property
    def ontology(self) -> Ontology:
        return self._ontology

    # -- alias management ----------------------------------------------

    def add_alias(self, cid: str, alias: str) -> bool:
        """Register ``alias`` for ``cid``; returns True if stored.

        Returns False (without storing) when the alias normalises to the
        canonical description or duplicates an existing alias.
        """
        concept = self._ontology.get(cid)  # raises KeyError for unknown cid
        normalized = normalize_text(alias)
        if not normalized:
            raise DataError(f"alias for {cid!r} normalised to an empty string")
        if normalized == normalize_text(concept.description):
            return False
        existing = self._aliases.setdefault(cid, [])
        if normalized in existing:
            return False
        existing.append(normalized)
        return True

    def add_aliases(self, cid: str, aliases: Iterable[str]) -> int:
        """Register many aliases; returns the number actually stored."""
        return sum(int(self.add_alias(cid, alias)) for alias in aliases)

    def add_feedback(self, query: str, cid: str) -> TrainingPair:
        """Record an expert's verdict that ``query`` means ``cid``.

        Appendix A's resolve step: the normalised query is appended to
        the concept's aliases (Figure 9(c)), so Phase I retrieval finds
        it before any retrain, and the returned pair is the new labeled
        training example.  Raises ``KeyError`` for an unknown cid and
        :class:`DataError` for a query that normalises to nothing.
        """
        self.add_alias(cid, query)
        return TrainingPair(
            cid=cid,
            canonical=normalize_text(self._ontology.get(cid).description),
            alias=normalize_text(query),
        )

    def aliases_of(self, cid: str) -> Tuple[str, ...]:
        """Stored aliases of ``cid`` (empty tuple when none)."""
        self._ontology.get(cid)
        return tuple(self._aliases.get(cid, ()))

    def concepts_with_aliases(self) -> Tuple[str, ...]:
        """Cids that currently have at least one alias."""
        return tuple(cid for cid, aliases in self._aliases.items() if aliases)

    def alias_count(self) -> int:
        """Total number of stored aliases."""
        return sum(len(aliases) for aliases in self._aliases.values())

    # -- training-data views ---------------------------------------------

    def training_pairs(
        self, cids: Optional[Sequence[str]] = None
    ) -> List[TrainingPair]:
        """Labeled ⟨canonical, alias⟩ pairs, optionally restricted to ``cids``."""
        selected = self._aliases.keys() if cids is None else cids
        pairs: List[TrainingPair] = []
        for cid in selected:
            concept = self._ontology.get(cid)
            canonical = normalize_text(concept.description)
            for alias in self._aliases.get(cid, ()):
                pairs.append(TrainingPair(cid=cid, canonical=canonical, alias=alias))
        return pairs

    def labeled_snippets(self) -> Iterator[Tuple[str, str]]:
        """All ``(cid, alias)`` pairs — the labeled snippet view of Fig 3(a)."""
        for cid, aliases in self._aliases.items():
            for alias in aliases:
                yield cid, alias

    # -- persistence ------------------------------------------------------

    def to_dict(self) -> Dict[str, List[str]]:
        """``{cid: [aliases]}`` snapshot (for persistence)."""
        return {cid: list(aliases) for cid, aliases in self._aliases.items()}

    def save_json(self, path: PathLike) -> None:
        """Write :meth:`to_dict` to ``path`` as JSON."""
        Path(path).write_text(json.dumps(self.to_dict(), indent=2), encoding="utf-8")

    @classmethod
    def load_json(cls, ontology: Ontology, path: PathLike) -> "KnowledgeBase":
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise DataError(f"knowledge base file {path} is not valid JSON: {exc}") from exc
        kb = cls(ontology)
        for cid, aliases in payload.items():
            kb.add_aliases(str(cid), [str(alias) for alias in aliases])
        return kb
