"""Word-vector store with cosine nearest-neighbour queries.

Query rewriting (paper Section 5, Eq. 13) replaces each
out-of-vocabulary query word with its embedding-nearest word from the
ontology vocabulary Ω; the embedding vocabulary Ω' is larger because it
includes unlabeled-corpus words, so abbreviations like ``dm`` (frequent
in physician notes) have vectors even though no concept description
contains them.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.utils.errors import DataError


def cosines(unit_rows: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Cosine of ``vector`` with each row of ``unit_rows`` (unit-norm rows).

    A zero ``vector`` scores 0.0 against every row.  Each row's dot
    product runs the same per-row loop, so its value depends only on
    the row and ``vector`` — not on the row's position or on which
    other rows share the matrix.  A BLAS mat-vec blocks rows and can
    differ in the last bit between equal rows; here equal rows tie
    exactly, and a sub-matrix scores each row as the full one does.
    """
    vector = np.asarray(vector, dtype=np.float64)
    norm = np.linalg.norm(vector)
    if norm == 0.0:
        norm = 1.0
    return np.einsum("ij,j->i", unit_rows, vector / norm)


class WordVectors:
    """An immutable ``word -> R^d`` map with cosine search.

    ``tag_words`` marks pseudo-words (injected concept-id tokens) that
    must never be returned by nearest-word queries.
    """

    def __init__(
        self,
        words: Sequence[str],
        matrix: np.ndarray,
        tag_words: Optional[Iterable[str]] = None,
    ) -> None:
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != len(words):
            raise DataError(
                f"matrix shape {matrix.shape} does not match {len(words)} words"
            )
        if len(set(words)) != len(words):
            raise DataError("duplicate words in WordVectors")
        self._words: Tuple[str, ...] = tuple(words)
        self._index: Dict[str, int] = {
            word: position for position, word in enumerate(self._words)
        }
        self._matrix = matrix
        norms = np.linalg.norm(matrix, axis=1)
        norms[norms == 0.0] = 1.0
        self._unit = matrix / norms[:, None]
        self._tags: Set[str] = set(tag_words) if tag_words else set()

    # -- lookups ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._words)

    def __contains__(self, word: str) -> bool:
        return word in self._index

    @property
    def dim(self) -> int:
        return self._matrix.shape[1]

    @property
    def words(self) -> Tuple[str, ...]:
        return self._words

    @property
    def tag_words(self) -> Set[str]:
        return set(self._tags)

    def vector_of(self, word: str) -> np.ndarray:
        """The stored vector of ``word`` (KeyError when absent)."""
        try:
            return self._matrix[self._index[word]]
        except KeyError:
            raise KeyError(f"word {word!r} not in vectors") from None

    def vectors_for(self, words: Sequence[str]) -> np.ndarray:
        """Stacked vectors for ``words`` as an ``(n, d)`` matrix."""
        return np.vstack([self.vector_of(word) for word in words])

    def unit_rows(self, words: Sequence[str]) -> np.ndarray:
        """Unit-norm rows of ``words`` as one contiguous ``(n, d)`` matrix
        (a zero vector stays zero), ready for :func:`cosines`."""
        return self._unit[[self._index[word] for word in words]]

    # -- similarity -----------------------------------------------------

    def cosine(self, left: str, right: str) -> float:
        """Cosine similarity between two stored words."""
        i, j = self._index[left], self._index[right]
        return float(self._unit[i] @ self._unit[j])

    def nearest(
        self,
        word: str,
        k: int = 1,
        restrict_to: Optional[Set[str]] = None,
        exclude_self: bool = True,
    ) -> List[Tuple[str, float]]:
        """Top-``k`` cosine-nearest words to ``word``.

        ``restrict_to`` limits candidates (e.g. the ontology vocabulary
        Ω during query rewriting); tag pseudo-words are always excluded.
        """
        if word not in self._index:
            raise KeyError(f"word {word!r} not in vectors")
        return self.nearest_to_vector(
            self._matrix[self._index[word]],
            k=k,
            restrict_to=restrict_to,
            exclude={word} if exclude_self else None,
        )

    def nearest_to_vector(
        self,
        vector: np.ndarray,
        k: int = 1,
        restrict_to: Optional[Set[str]] = None,
        exclude: Optional[Set[str]] = None,
    ) -> List[Tuple[str, float]]:
        """Top-``k`` cosine-nearest words to an arbitrary vector.

        Equal cosines rank by earliest position in :attr:`words`.
        """
        scores = cosines(self._unit, vector)
        blocked = set(self._tags)
        if exclude:
            blocked |= exclude
        order = np.argsort(-scores, kind="stable")
        results: List[Tuple[str, float]] = []
        for position in order:
            candidate = self._words[int(position)]
            if candidate in blocked:
                continue
            if restrict_to is not None and candidate not in restrict_to:
                continue
            results.append((candidate, float(scores[int(position)])))
            if len(results) >= k:
                break
        return results

    # -- export ------------------------------------------------------------

    def subset(self, words: Sequence[str]) -> "WordVectors":
        """Vectors restricted to ``words`` (missing words raise)."""
        matrix = self.vectors_for(words)
        tags = [word for word in words if word in self._tags]
        return WordVectors(words, matrix, tag_words=tags)

    def as_matrix(self, words: Sequence[str], missing: str = "error") -> np.ndarray:
        """Matrix of vectors for ``words``.

        ``missing='zeros'`` substitutes a zero vector for unknown words
        (used when seeding model embeddings: special tokens have no
        pre-trained vector).
        """
        if missing not in ("error", "zeros"):
            raise ValueError(f"missing must be 'error' or 'zeros', got {missing!r}")
        rows = []
        for word in words:
            if word in self._index:
                rows.append(self._matrix[self._index[word]])
            elif missing == "zeros":
                rows.append(np.zeros(self.dim))
            else:
                raise KeyError(f"word {word!r} not in vectors")
        return np.vstack(rows)
