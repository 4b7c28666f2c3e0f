"""Numerically stable activation and loss primitives."""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic sigmoid, stable for large |x|."""
    out = np.empty_like(x, dtype=np.float64)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


def sigmoid_inplace(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid as ``½·tanh(½·x) + ½``, in place on float64 ``x``.

    The inference-only form for the batched recurrent steps: one
    ``tanh`` pass with no boolean masks, and no overflow for any finite
    ``x``.  Matches :func:`sigmoid` (which training keeps) to within a
    few ulps of 1.  Returns ``x``.
    """
    x *= 0.5
    np.tanh(x, out=x)
    x *= 0.5
    x += 0.5
    return x


def sigmoid_grad(y: np.ndarray) -> np.ndarray:
    """d sigmoid / dx expressed in terms of the output ``y``."""
    return y * (1.0 - y)


def tanh(x: np.ndarray) -> np.ndarray:
    """Elementwise hyperbolic tangent (thin numpy wrapper for symmetry)."""
    return np.tanh(x)


def tanh_grad(y: np.ndarray) -> np.ndarray:
    """d tanh / dx expressed in terms of the output ``y``."""
    return 1.0 - y * y


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable softmax along ``axis``."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable log-softmax along ``axis``."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def softmax_cross_entropy(
    logits: np.ndarray, target: int
) -> Tuple[float, np.ndarray]:
    """Cross-entropy of a single categorical ``target`` under ``logits``.

    Returns ``(loss, dlogits)`` where ``dlogits = softmax(logits) -
    onehot(target)`` — the gradient of the loss w.r.t. the logits.
    """
    if logits.ndim != 1:
        raise ValueError(f"logits must be 1-D, got shape {logits.shape}")
    if not 0 <= target < logits.shape[0]:
        raise IndexError(
            f"target {target} out of range for {logits.shape[0]} classes"
        )
    log_probs = log_softmax(logits)
    loss = -float(log_probs[target])
    dlogits = np.exp(log_probs)
    dlogits[target] -= 1.0
    return loss, dlogits


def softmax_inplace(scores: np.ndarray) -> np.ndarray:
    """Softmax along the last axis of float64 ``scores``, in place.

    The inference-only form of :func:`softmax` for the batched
    attentions: shift by the row max, exponentiate and normalise, with
    no temporary the size of ``scores``.  A mask enters as an additive
    ``0 / −inf`` bias applied beforehand: a ``−inf`` score gets
    probability exactly 0 and adds exactly 0 to the normaliser, so the
    other positions equal a plain softmax over them alone.  Every row
    needs at least one finite score.  Returns ``scores``.
    """
    scores -= np.max(scores, axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= np.sum(scores, axis=-1, keepdims=True)
    return scores


#: :func:`log_normalizers` skips the max shift for logits bounded below
#: this: ``e^600 ≈ 3.8e260`` and ``e^−600 ≈ 2.7e−261`` are normal
#: float64 values, so no term overflows or underflows, and a row sum
#: overflows only past ~10^47 terms.
SHIFT_FREE_LIMIT = 600.0


def logit_bound(weight: np.ndarray, bias: np.ndarray) -> float:
    """``L = max_w(‖W[w]‖₁ + |b_w|)`` for an output layer ``(W, b)``.

    Every logit ``W[w]·s + b_w`` of an input ``s`` with entries in
    ``[−1, 1]`` — a ``tanh`` output such as COM-AID's composite state
    ``s̃`` (Eq. 8) — lies within ``±L`` (Hölder).  A bound at or above
    :data:`SHIFT_FREE_LIMIT` keeps :func:`log_normalizers` on its
    shifted branch.
    """
    return float(np.max(np.abs(weight).sum(axis=1) + np.abs(bias)))


def log_normalizers(logits: np.ndarray, bound: float = math.inf) -> np.ndarray:
    """Per-row ``log Σ exp(logits[b])`` of a float64 ``(B, V)`` batch.

    In place on ``logits``, which ends holding its exponentials.
    ``bound`` is an upper bound on every ``|logit|`` (see
    :func:`logit_bound`).  Below :data:`SHIFT_FREE_LIMIT` the sum is
    formed directly — exponentiate, sum, log — since no term can
    overflow or underflow.  Otherwise (the default) the rows are first
    shifted by their max, the normaliser :func:`log_softmax` subtracts,
    and the result ``max + log Σ exp(logits − max)`` is finite for any
    finite logits.
    """
    if bound < SHIFT_FREE_LIMIT:
        np.exp(logits, out=logits)
        return np.log(np.sum(logits, axis=-1))
    shift = np.max(logits, axis=-1)
    logits -= shift[:, None]
    np.exp(logits, out=logits)
    return shift + np.log(np.sum(logits, axis=-1))


def matmul_rows(
    a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """``a @ b`` for a ``(B, k)`` row batch, never on the one-row path.

    numpy hands a one-row product to BLAS ``gemv`` and a wider one to
    ``gemm``, and the two round their sums differently, so a query
    linked alone would differ in its last bits from the same query
    linked in a batch.  A one-row ``a`` is therefore multiplied as two
    copies of itself.
    """
    if a.shape[0] != 1:
        return np.matmul(a, b, out=out)
    product = np.matmul(np.concatenate((a, a)), b)[:1]
    if out is None:
        return product
    out[...] = product
    return out


def one_hot(index: int, size: int) -> np.ndarray:
    """A 1-D one-hot vector (validation included)."""
    if not 0 <= index < size:
        raise IndexError(f"index {index} out of range for size {size}")
    vector = np.zeros(size, dtype=np.float64)
    vector[index] = 1.0
    return vector
