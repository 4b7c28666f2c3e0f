"""Dot-product attention (paper Eq. 5–7).

Both COM-AID attentions share one mechanism: relatedness scores are the
inner products of a decoder state ``s_t`` with a memory of vectors
(encoder states ``h_r`` for text attention, ancestor representations
``h^{c_{l-r}}`` for structure attention); weights are their softmax; the
context vector is the weight-averaged memory.

``Attention`` is parameter-free (the inner-product score has no
weights) but is a :class:`Module` so richer scoring functions can be
substituted; the backward pass returns gradients for both the query and
the memory — the memory gradient is what propagates decoder error back
into the encoder and the ancestor encodings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.nn.functional import softmax, softmax_inplace
from repro.nn.module import Module


@dataclass
class AttentionCache:
    """Saved activations for one attention application."""

    query: np.ndarray
    memory: np.ndarray
    weights: np.ndarray


class Attention(Module):
    """Inner-product attention over a ``(n, d)`` memory."""

    def forward(
        self, query: np.ndarray, memory: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, AttentionCache]:
        """Return ``(context, weights, cache)``.

        ``context = Σ_r α_r memory[r]`` with
        ``α = softmax(memory @ query)`` — Eq. 5/6 (text) and Eq. 7
        (structure).
        """
        query = np.asarray(query, dtype=np.float64)
        memory = np.asarray(memory, dtype=np.float64)
        if memory.ndim != 2:
            raise ValueError(f"memory must be 2-D, got shape {memory.shape}")
        if memory.shape[0] == 0:
            raise ValueError("attention memory must be non-empty")
        if query.shape != (memory.shape[1],):
            raise ValueError(
                f"query shape {query.shape} incompatible with memory "
                f"{memory.shape}"
            )
        scores = memory @ query
        weights = softmax(scores)
        context = weights @ memory
        cache = AttentionCache(query=query, memory=memory, weights=weights)
        return context, weights, cache

    def forward_batch(
        self,
        queries: np.ndarray,
        memory: np.ndarray,
        bias: Optional[np.ndarray] = None,
        out: Optional[np.ndarray] = None,
        bound: float = math.inf,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched attention: one query row against one memory per row.

        ``queries`` is ``(B, d)``; ``memory`` is ``(B, N, d)`` — per-row
        memories padded to a common length ``N``; ``bias`` is an
        optional ``(B, N)`` additive mask, ``0`` on each row's valid
        entries and ``−inf`` on its padding (``None`` means all valid,
        e.g. the structure memories, which Def. 4.1's first-level
        duplication pads to a uniform β).  The contexts are written
        into ``out`` (any ``(B, d)`` float64 view, e.g. a slice of the
        composite layer's input) or a new array.  Returns ``(contexts,
        weights)``; row ``b`` equals :meth:`forward` on ``queries[b]``
        against the valid prefix of ``memory[b]`` (padding gets weight
        exactly 0, so it adds exactly 0 to the context).  The softmax
        runs in place on the scores (shift-free when ``bound`` bounds
        every ``|score|`` below the limit of
        :func:`~repro.nn.functional.softmax_inplace`); the inputs are
        never written.  Inference-only: no cache, no backward.
        """
        if memory.ndim != 3 or memory.shape[2] != queries.shape[1]:
            raise ValueError(
                f"queries {queries.shape} incompatible with memory "
                f"{memory.shape}"
            )
        weights = np.matmul(memory, queries[:, :, None])[:, :, 0]
        if bias is not None:
            weights += bias
        softmax_inplace(weights, bound)
        if out is None:
            out = np.empty(queries.shape)
        np.matmul(weights[:, None, :], memory, out=out[:, None, :])
        return out, weights

    def backward(
        self, d_context: np.ndarray, cache: AttentionCache
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(d_query, d_memory)`` for upstream ``d_context``."""
        d_context = np.asarray(d_context, dtype=np.float64)
        weights = cache.weights
        memory = cache.memory
        query = cache.query
        # context = weights @ memory
        d_weights = memory @ d_context
        d_memory = np.outer(weights, d_context)
        # weights = softmax(scores); Jacobian-vector product:
        dot = float(weights @ d_weights)
        d_scores = weights * (d_weights - dot)
        # scores = memory @ query
        d_query = memory.T @ d_scores
        d_memory += np.outer(d_scores, query)
        return d_query, d_memory
