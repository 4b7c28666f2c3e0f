"""Numerically stable activation and loss primitives."""

from __future__ import annotations

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


def masked_softmax(
    scores: np.ndarray, mask: Optional[np.ndarray] = None, axis: int = -1
) -> np.ndarray:
    """Softmax along ``axis`` restricted to positions where ``mask`` holds.

    Masked-out positions receive probability exactly 0, and the valid
    positions' probabilities equal a plain softmax computed over the
    valid entries alone: the max is taken over valid scores only and the
    padding contributes exact zero terms to the normaliser.  This is the
    property the batched Phase-II equivalence suite relies on when
    candidate memories of different lengths are zero-padded to a common
    width.  ``mask=None`` degrades to :func:`softmax`.  Every slice
    along ``axis`` must keep at least one valid position.
    """
    if mask is None:
        return softmax(scores, axis=axis)
    scores = np.asarray(scores, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != scores.shape:
        raise ValueError(
            f"mask shape {mask.shape} != scores shape {scores.shape}"
        )
    if not np.all(np.any(mask, axis=axis)):
        raise ValueError("masked_softmax: a slice has no valid positions")
    masked = np.where(mask, scores, -np.inf)
    shifted = masked - np.max(masked, axis=axis, keepdims=True)
    exp = np.exp(shifted)  # exp(-inf) is exactly 0.0
    return exp / np.sum(exp, axis=axis, keepdims=True)


def batched_target_log_probs(
    logits: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """Per-row ``log softmax(logits[b])[targets[b]]`` for a ``(B, V)`` batch.

    The batched, sign-flipped analogue of :func:`softmax_cross_entropy`'s
    loss term (no gradient is produced — the batched Phase-II path is
    inference-only).  Computed as ``logit[target] −``
    :func:`log_normalizers`, in place on the ``logits`` buffer, reading
    out only the B target entries: the full log-softmax is never
    materialised and no ``(B, V)`` temporary is allocated.  A float64
    ``logits`` array is therefore overwritten (it ends holding the
    shifted exponentials); pass a copy to keep it.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2:
        raise ValueError(f"logits must be 2-D, got shape {logits.shape}")
    index = np.asarray(targets, dtype=np.intp)
    if index.shape != (logits.shape[0],):
        raise ValueError(
            f"targets shape {index.shape} != ({logits.shape[0]},)"
        )
    if index.size and (index.min() < 0 or index.max() >= logits.shape[1]):
        raise IndexError(
            f"target out of range for {logits.shape[1]} classes: "
            f"{index.min()}..{index.max()}"
        )
    target = logits[np.arange(logits.shape[0]), index]
    return target - log_normalizers(logits)


def log_normalizers(logits: np.ndarray) -> np.ndarray:
    """Per-row ``log Σ exp(logits[b])`` of a float64 ``(B, V)`` batch.

    Shift by the row max, exponentiate and sum — the normaliser
    :func:`log_softmax` subtracts — in place on ``logits``, which ends
    holding the shifted exponentials.  Returns ``max + log Σ exp(logits
    − max)``, finite for any finite logits.
    """
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
