"""Fully connected layer with explicit backward."""

from __future__ import annotations

import numpy as np

from repro.nn.initializers import glorot_uniform, zeros
from repro.nn.module import Module, Parameter
from repro.utils.rng import RngLike


class Linear(Module):
    """``y = W x + b`` for 1-D inputs (and row-batched 2-D inputs).

    Used for the composite layer (paper Eq. 8, ``W_d ∈ R^{d×3d}``) and
    the vocabulary projection (Eq. 9, ``W_s ∈ R^{|V|×d}``).
    """

    def __init__(self, in_dim: int, out_dim: int, rng: RngLike = None) -> None:
        if in_dim < 1 or out_dim < 1:
            raise ValueError(
                f"dimensions must be >= 1, got in_dim={in_dim}, out_dim={out_dim}"
            )
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.weight = Parameter(glorot_uniform((out_dim, in_dim), rng=rng))
        self.bias = Parameter(zeros((out_dim,)))

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Apply ``W x + b`` (1-D input) or row-wise for 2-D input."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.in_dim:
            raise ValueError(
                f"input last dim {x.shape[-1]} != in_dim {self.in_dim}"
            )
        return x @ self.weight.value.T + self.bias.value

    def backward(self, x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
        """Accumulate parameter grads; return grad w.r.t. ``x``.

        ``x`` must be the same array (values) passed to :meth:`forward`.
        """
        x = np.asarray(x, dtype=np.float64)
        grad = np.asarray(grad_out, dtype=np.float64)
        if x.ndim == 1:
            self.weight.grad += np.outer(grad, x)
            self.bias.grad += grad
        else:
            self.weight.grad += grad.T @ x
            self.bias.grad += grad.sum(axis=0)
        return grad @ self.weight.value
