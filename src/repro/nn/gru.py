"""GRU cell and sequence encoder (drop-in alternative to the LSTM).

The paper builds COM-AID on LSTM units; GRUs are the standard
lighter-weight alternative (fewer parameters, one state vector instead
of two).  ``GRUEncoder`` deliberately mirrors ``LSTMEncoder``'s
interface — including the (unused) cell-state slots — so COM-AID can
switch recurrent unit with a configuration flag and the ablation bench
can compare them.

Gate equations (Cho et al.):

    z = σ(W_z x + U_z h + b_z)          update gate
    r = σ(W_r x + U_r h + b_r)          reset gate
    n = tanh(W_n x + r ⊙ (U_n h) + b_n) candidate
    h' = (1 − z) ⊙ n + z ⊙ h
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.nn.functional import (
    matmul_rows,
    sigmoid,
    sigmoid_grad,
    sigmoid_inplace,
    tanh,
    tanh_grad,
)
from repro.nn.initializers import glorot_uniform, orthogonal, zeros
from repro.nn.module import Module, Parameter
from repro.utils.rng import RngLike, derive_rng, ensure_rng


@dataclass
class GRUStepCache:
    """Activations saved by one forward step."""

    x: np.ndarray
    h_prev: np.ndarray
    z: np.ndarray
    r: np.ndarray
    n: np.ndarray
    candidate_recurrent: np.ndarray  # U_n @ h_prev
    h: np.ndarray

    @property
    def c(self) -> np.ndarray:
        """LSTM-cache compatibility: the GRU's only state is ``h``."""
        return self.h


class GRUCell(Module):
    """One GRU unit on 1-D vectors.

    Stacked parameters: ``wx ∈ R^{3h×d_in}`` rows ``[update, reset,
    candidate]``, likewise ``wh`` and ``bias``.
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: RngLike = None) -> None:
        if input_dim < 1 or hidden_dim < 1:
            raise ValueError(
                f"dimensions must be >= 1, got input_dim={input_dim}, "
                f"hidden_dim={hidden_dim}"
            )
        generator = ensure_rng(rng)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.wx = Parameter(
            glorot_uniform((3 * hidden_dim, input_dim), rng=derive_rng(generator, "wx"))
        )
        blocks = [
            orthogonal((hidden_dim, hidden_dim), rng=derive_rng(generator, f"wh{i}"))
            for i in range(3)
        ]
        self.wh = Parameter(np.vstack(blocks))
        self.bias = Parameter(zeros((3 * hidden_dim,)))

    def initial_state(self) -> Tuple[np.ndarray, np.ndarray]:
        """Zero hidden state (plus an unused cell-slot placeholder)."""
        h = np.zeros(self.hidden_dim, dtype=np.float64)
        return h, h.copy()  # second slot is the unused "cell" placeholder

    def step(
        self, x: np.ndarray, h_prev: np.ndarray, c_prev: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray, GRUStepCache]:
        """One step; ``c_prev`` is accepted and ignored (API parity)."""
        hidden = self.hidden_dim
        x = np.asarray(x, dtype=np.float64)
        pre_x = self.wx.value @ x + self.bias.value
        update = sigmoid(pre_x[:hidden] + self.wh.value[:hidden] @ h_prev)
        reset = sigmoid(
            pre_x[hidden : 2 * hidden]
            + self.wh.value[hidden : 2 * hidden] @ h_prev
        )
        candidate_recurrent = self.wh.value[2 * hidden :] @ h_prev
        candidate = tanh(pre_x[2 * hidden :] + reset * candidate_recurrent)
        h = (1.0 - update) * candidate + update * h_prev
        cache = GRUStepCache(
            x=x,
            h_prev=h_prev,
            z=update,
            r=reset,
            n=candidate,
            candidate_recurrent=candidate_recurrent,
            h=h,
        )
        return h, h, cache

    def step_batch(
        self,
        x: np.ndarray,
        h_prev: np.ndarray,
        c_prev: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One step over a ``(B, input_dim)`` row-batch; ``c_prev`` is
        accepted and ignored (LSTM API parity).

        Row ``b`` of the output equals :meth:`step` on row ``b`` (to
        floating-point round-off).  Inference-only: no cache, no
        gradients.  The gate math runs in place in one pre-activation
        buffer; the inputs are never written, and the output is a new
        array.
        """
        hidden = self.hidden_dim
        if x.shape[1:] != (self.input_dim,) or h_prev.shape != (
            x.shape[0],
            hidden,
        ):
            raise ValueError(
                f"need x (B, {self.input_dim}) and h_prev (B, {hidden}), "
                f"got x={x.shape}, h_prev={h_prev.shape}"
            )
        wh = self.wh.value
        # One (B, 3h) pre-activation buffer; the gate math runs in it.
        pre = matmul_rows(x, self.wx.value.T)
        pre += self.bias.value
        # The update and reset gates are one contiguous block: one
        # sigmoid call over it is elementwise identical to two.
        gates = pre[:, : 2 * hidden]
        gates += matmul_rows(h_prev, wh[: 2 * hidden].T)
        sigmoid_inplace(gates)
        update = pre[:, :hidden]
        candidate = pre[:, 2 * hidden :]
        recurrent = matmul_rows(h_prev, wh[2 * hidden :].T)
        recurrent *= pre[:, hidden : 2 * hidden]  # r ⊙ (U_n h)
        candidate += recurrent
        np.tanh(candidate, out=candidate)
        h = update * h_prev
        np.subtract(1.0, update, out=update)
        update *= candidate  # (1 − z) ⊙ n
        h += update
        return h, h

    def backward_step(
        self,
        dh: np.ndarray,
        dc: Optional[np.ndarray],
        cache: GRUStepCache,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Backward; ``dc`` (cell-slot gradient) is folded into ``dh``
        when provided — for the GRU they are the same state."""
        hidden = self.hidden_dim
        if dc is not None:
            dh = dh + dc
        d_update = dh * (cache.h_prev - cache.n)
        d_candidate = dh * (1.0 - cache.z)
        dh_prev = dh * cache.z

        d_pre_candidate = d_candidate * tanh_grad(cache.n)
        d_reset = d_pre_candidate * cache.candidate_recurrent
        d_candidate_recurrent = d_pre_candidate * cache.r
        d_pre_update = d_update * sigmoid_grad(cache.z)
        d_pre_reset = d_reset * sigmoid_grad(cache.r)

        wh = self.wh.value
        self.wh.grad[:hidden] += np.outer(d_pre_update, cache.h_prev)
        self.wh.grad[hidden : 2 * hidden] += np.outer(d_pre_reset, cache.h_prev)
        self.wh.grad[2 * hidden :] += np.outer(
            d_candidate_recurrent, cache.h_prev
        )
        dh_prev = (
            dh_prev
            + wh[:hidden].T @ d_pre_update
            + wh[hidden : 2 * hidden].T @ d_pre_reset
            + wh[2 * hidden :].T @ d_candidate_recurrent
        )

        d_pre = np.concatenate([d_pre_update, d_pre_reset, d_pre_candidate])
        self.wx.grad += np.outer(d_pre, cache.x)
        self.bias.grad += d_pre
        dx = self.wx.value.T @ d_pre
        dc_prev = np.zeros(hidden)
        return dx, dh_prev, dc_prev


class GRUEncoder(Module):
    """Sequence GRU with the same interface as :class:`LSTMEncoder`."""

    def __init__(self, input_dim: int, hidden_dim: int, rng: RngLike = None) -> None:
        self.cell = GRUCell(input_dim, hidden_dim, rng=rng)

    @property
    def hidden_dim(self) -> int:
        return self.cell.hidden_dim

    @property
    def input_dim(self) -> int:
        return self.cell.input_dim

    def forward(
        self,
        inputs: np.ndarray,
        h0: Optional[np.ndarray] = None,
        c0: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, List[GRUStepCache]]:
        """Run the GRU over a ``(T, input_dim)`` sequence; ``c0`` ignored."""
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 2 or inputs.shape[1] != self.cell.input_dim:
            raise ValueError(
                f"inputs must be (T, {self.cell.input_dim}), got {inputs.shape}"
            )
        if inputs.shape[0] == 0:
            raise ValueError("cannot encode an empty sequence")
        h, _ = self.cell.initial_state()
        if h0 is not None:
            h = np.asarray(h0, dtype=np.float64)
        # c0 is accepted for API parity and ignored.
        states = np.empty((inputs.shape[0], self.cell.hidden_dim))
        caches: List[GRUStepCache] = []
        for t in range(inputs.shape[0]):
            h, _, cache = self.cell.step(inputs[t], h)
            states[t] = h
            caches.append(cache)
        return states, caches

    def backward(
        self,
        d_states: np.ndarray,
        caches: List[GRUStepCache],
        d_h_final: Optional[np.ndarray] = None,
        d_c_final: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """BPTT; a ``d_c_final`` gradient (from an LSTM-shaped caller)
        is treated as additional gradient on the final hidden state."""
        d_states = np.asarray(d_states, dtype=np.float64)
        steps = len(caches)
        if d_states.shape != (steps, self.cell.hidden_dim):
            raise ValueError(
                f"d_states must be ({steps}, {self.cell.hidden_dim}), "
                f"got {d_states.shape}"
            )
        d_inputs = np.empty((steps, self.cell.input_dim))
        dh = np.zeros(self.cell.hidden_dim)
        if d_h_final is not None:
            dh = dh + np.asarray(d_h_final, dtype=np.float64)
        if d_c_final is not None:
            dh = dh + np.asarray(d_c_final, dtype=np.float64)
        for t in range(steps - 1, -1, -1):
            dh = dh + d_states[t]
            dx, dh, _ = self.cell.backward_step(dh, None, caches[t])
            d_inputs[t] = dx
        return d_inputs, dh, np.zeros(self.cell.hidden_dim)
