"""Query rewriting for out-of-vocabulary words (paper Section 5, Eq. 13).

For each query word ``w`` not in the ontology vocabulary Ω:

1. if ``w`` has a pre-trained embedding (it is in Ω′, which includes
   unlabeled-corpus words like ``dm``), replace it with the
   cosine-nearest word *in Ω* (Eq. 13);
2. otherwise (``w ∉ Ω′`` — typically a typo like ``neuropaty``), first
   map ``w`` to its textually closest word in Ω′ by edit distance, then
   apply step 1;
3. purely numeric tokens (``5`` in ``ckd 5``) are never rewritten —
   they carry stage/type information verbatim.

Step 1 scores one contiguous matrix holding only the unit rows of the
Ω words that have vectors (tag words excluded), in Ω′ order, and takes
its ``argmax`` — equal cosines go to the earliest Ω′ position, the tie
rule of :meth:`WordVectors.nearest`.  Each Ω′ word's answer (or
``None``) is then kept in a per-rewriter table, so the table holds at
most |Ω′| entries whatever the traffic: a typo still runs its edit
repair on every call and only the Ω′ word it repairs to is looked up.
A new Ω means a new rewriter (the linker rebuilds it on a swap), so
the table never outlives its Ω.  Entries are idempotent values set
under the GIL, so concurrent callers need no lock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.embeddings.similarity import WordVectors, cosines
from repro.text.edit_distance import levenshtein
from repro.utils.errors import ConfigurationError


@dataclass(frozen=True)
class Rewrite:
    """One applied substitution (for diagnostics and tests)."""

    original: str
    replacement: str
    via: str  # "embedding" | "edit+embedding" | "kept"


class QueryRewriter:
    """Rewrite OOV query words into the ontology vocabulary."""

    def __init__(
        self,
        omega: Set[str],
        word_vectors: Optional[WordVectors] = None,
        edit_distance_max: int = 2,
        min_similarity: float = 0.6,
        min_edit_word_length: int = 4,
    ) -> None:
        if not omega:
            raise ConfigurationError("omega (ontology vocabulary) is empty")
        if edit_distance_max < 0:
            raise ConfigurationError(
                f"edit_distance_max must be >= 0, got {edit_distance_max}"
            )
        if not -1.0 <= min_similarity <= 1.0:
            raise ConfigurationError(
                f"min_similarity must be a cosine in [-1, 1], got {min_similarity}"
            )
        if min_edit_word_length < 1:
            raise ConfigurationError(
                f"min_edit_word_length must be >= 1, got {min_edit_word_length}"
            )
        self._omega = set(omega)
        self._vectors = word_vectors
        self._edit_max = edit_distance_max
        self._min_similarity = min_similarity
        self._min_edit_word_length = min_edit_word_length
        # Candidate pool for the edit-distance fallback: Ω′ when vectors
        # exist (so a typo can first repair to an Ω′ word), else Ω.
        self._omega_words: Tuple[str, ...] = ()
        if word_vectors is not None:
            tags = word_vectors.tag_words
            self._edit_pool = [
                word for word in word_vectors.words if word not in tags
            ]
            self._omega_words = tuple(
                word for word in self._edit_pool if word in self._omega
            )
            self._omega_unit = word_vectors.unit_rows(self._omega_words)
        else:
            self._edit_pool = sorted(self._omega)
        # Eq. 13 answer per Ω′ word, filled on first use.
        self._nearest: Dict[str, Optional[str]] = {}

    @property
    def omega(self) -> Set[str]:
        return set(self._omega)

    def rewrite(self, tokens: Sequence[str]) -> Tuple[List[str], List[Rewrite]]:
        """Rewrite a tokenised query; returns (new_tokens, rewrites)."""
        rewritten: List[str] = []
        applied: List[Rewrite] = []
        for token in tokens:
            replacement, via = self._rewrite_word(token)
            rewritten.append(replacement)
            if via != "kept":
                applied.append(
                    Rewrite(original=token, replacement=replacement, via=via)
                )
        return rewritten, applied

    def _rewrite_word(self, word: str) -> Tuple[str, str]:
        if word in self._omega or self._is_numeric(word):
            return word, "kept"
        if self._vectors is not None and word in self._vectors:
            nearest = self._nearest_in_omega(word)
            if nearest is not None:
                return nearest, "embedding"
            return word, "kept"
        repaired = self._edit_repair(word)
        if repaired is None:
            return word, "kept"
        if repaired in self._omega:
            return repaired, "edit+embedding"
        if self._vectors is not None and repaired in self._vectors:
            nearest = self._nearest_in_omega(repaired)
            if nearest is not None:
                return nearest, "edit+embedding"
        return word, "kept"

    def _nearest_in_omega(self, word: str) -> Optional[str]:
        """Embedding-nearest Ω word, gated by ``min_similarity``.

        Low-information decorations ("for investigation", "on follow
        up") have no semantic counterpart in Ω; their nearest cosine is
        low and substituting them would inject noise into both
        retrieval and scoring, so they are kept as-is.

        ``word`` is an Ω′ word outside Ω, so it can never be its own
        answer.
        """
        try:
            return self._nearest[word]
        except KeyError:
            pass
        assert self._vectors is not None
        nearest: Optional[str] = None
        if self._omega_words:
            scores = cosines(self._omega_unit, self._vectors.vector_of(word))
            best = int(np.argmax(scores))
            if scores[best] >= self._min_similarity:
                nearest = self._omega_words[best]
        self._nearest[word] = nearest
        return nearest

    def _edit_repair(self, word: str) -> Optional[str]:
        """Closest Ω′ word within the edit-distance budget (ties: shortest,
        then lexicographic, for determinism).

        Very short words are never repaired: a one- or two-character
        token is within edit distance of half the vocabulary, so
        "repairing" it is pure noise ("c" must not become "5").
        """
        if self._edit_max == 0 or len(word) < self._min_edit_word_length:
            return None
        best: Optional[str] = None
        best_key: Optional[Tuple[int, int, str]] = None
        for candidate in self._edit_pool:
            distance = levenshtein(word, candidate, max_distance=self._edit_max)
            if distance > self._edit_max:
                continue
            key = (distance, len(candidate), candidate)
            if best_key is None or key < best_key:
                best, best_key = candidate, key
        return best

    @staticmethod
    def _is_numeric(token: str) -> bool:
        stripped = token.rstrip("%")
        return bool(stripped) and all(
            char.isdigit() or char == "." for char in stripped
        )
