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
    inference-only).  Computed as ``(logit[target] − max) − log Σ
    exp(logits − max)``, the same operations :func:`log_softmax` runs,
    but in place on the ``logits`` buffer, reading out only the B target
    entries: the full log-softmax is never materialised and no
    ``(B, V)`` temporary is allocated.  A float64 ``logits`` array is
    therefore overwritten (it ends holding the shifted exponentials);
    pass a copy to keep it.
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
    logits -= np.max(logits, axis=-1, keepdims=True)
    target = logits[np.arange(logits.shape[0]), index]
    np.exp(logits, out=logits)
    return target - np.log(np.sum(logits, axis=-1))


def one_hot(index: int, size: int) -> np.ndarray:
    """A 1-D one-hot vector (validation included)."""
    if not 0 <= index < size:
        raise IndexError(f"index {index} out of range for size {size}")
    vector = np.zeros(size, dtype=np.float64)
    vector[index] = 1.0
    return vector
