"""LSTM cell and sequence encoder with full back-propagation-through-time.

The concept encoder (paper Section 4.1.1) and the decoder's recurrent
core (Section 4.1.2, Eq. 4) are standard LSTMs.  (The paper's Eq. block
omits the cell-state update line ``c_t = f_t ⊙ c_{t-1} + i_t ⊙ c̃_t`` —
an evident typographical slip; we implement the standard LSTM the
notation otherwise describes.)

Gate layout in the stacked matrices is ``[input, forget, output,
candidate]``; the forget-gate bias is initialised to 1.0 (standard
practice for gradient flow on short clinical snippets).
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
class LSTMStepCache:
    """Activations saved by one forward step for its backward step."""

    x: np.ndarray
    h_prev: np.ndarray
    c_prev: np.ndarray
    i: np.ndarray
    f: np.ndarray
    o: np.ndarray
    g: np.ndarray
    c: np.ndarray
    c_tanh: np.ndarray


class LSTMCell(Module):
    """One LSTM unit operating on 1-D vectors.

    Parameters are stacked: ``wx ∈ R^{4h×d_in}``, ``wh ∈ R^{4h×h}``,
    ``bias ∈ R^{4h}``; rows ``[0,h) = input gate``, ``[h,2h) = forget``,
    ``[2h,3h) = output``, ``[3h,4h) = candidate``.
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
            glorot_uniform((4 * hidden_dim, input_dim), rng=derive_rng(generator, "wx"))
        )
        recurrent_blocks = [
            orthogonal((hidden_dim, hidden_dim), rng=derive_rng(generator, f"wh{i}"))
            for i in range(4)
        ]
        self.wh = Parameter(np.vstack(recurrent_blocks))
        bias = zeros((4 * hidden_dim,))
        bias[hidden_dim : 2 * hidden_dim] = 1.0  # forget-gate bias
        self.bias = Parameter(bias)

    def initial_state(self) -> Tuple[np.ndarray, np.ndarray]:
        """Zero hidden and cell states."""
        return (
            np.zeros(self.hidden_dim, dtype=np.float64),
            np.zeros(self.hidden_dim, dtype=np.float64),
        )

    def step(
        self, x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, LSTMStepCache]:
        """One time step; returns ``(h, c, cache)``."""
        hidden = self.hidden_dim
        pre = self.wx.value @ x + self.wh.value @ h_prev + self.bias.value
        gate_i = sigmoid(pre[:hidden])
        gate_f = sigmoid(pre[hidden : 2 * hidden])
        gate_o = sigmoid(pre[2 * hidden : 3 * hidden])
        candidate = tanh(pre[3 * hidden :])
        cell = gate_f * c_prev + gate_i * candidate
        cell_tanh = tanh(cell)
        hidden_state = gate_o * cell_tanh
        cache = LSTMStepCache(
            x=np.asarray(x, dtype=np.float64),
            h_prev=h_prev,
            c_prev=c_prev,
            i=gate_i,
            f=gate_f,
            o=gate_o,
            g=candidate,
            c=cell,
            c_tanh=cell_tanh,
        )
        return hidden_state, cell, cache

    def step_batch(
        self, x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One time step over a ``(B, input_dim)`` row-batch.

        Row ``b`` of the outputs equals :meth:`step` applied to row ``b``
        of the inputs (to floating-point round-off: the batch runs one
        ``(B, 4h)`` matmul per term where :meth:`step` runs B mat-vecs).
        Inference-only — no cache is produced and no gradients flow; the
        training path stays on :meth:`step`.  The gate math runs in
        place in one pre-activation buffer; the inputs are never
        written, and the outputs are new arrays.
        """
        hidden = self.hidden_dim
        if x.shape[1:] != (self.input_dim,) or h_prev.shape != (
            x.shape[0],
            hidden,
        ) or c_prev.shape != h_prev.shape:
            raise ValueError(
                f"need x (B, {self.input_dim}) and states (B, {hidden}), got "
                f"x={x.shape}, h={h_prev.shape}, c={c_prev.shape}"
            )
        # One (B, 4h) pre-activation buffer; the gate math runs in it.
        pre = matmul_rows(x, self.wx.value.T)
        pre += matmul_rows(h_prev, self.wh.value.T)
        pre += self.bias.value
        # The input/forget/output gates are one contiguous block: one
        # sigmoid call over it is elementwise identical to three.
        sigmoid_inplace(pre[:, : 3 * hidden])
        gated = pre[:, 3 * hidden :]
        np.tanh(gated, out=gated)
        gated *= pre[:, :hidden]  # i ⊙ g
        cell = pre[:, hidden : 2 * hidden] * c_prev
        cell += gated
        hidden_state = np.tanh(cell)
        hidden_state *= pre[:, 2 * hidden : 3 * hidden]
        return hidden_state, cell

    def backward_step(
        self, dh: np.ndarray, dc: np.ndarray, cache: LSTMStepCache
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Backward through one step.

        ``dh`` / ``dc`` are the gradients flowing into this step's
        outputs; returns ``(dx, dh_prev, dc_prev)`` and accumulates the
        parameter gradients.
        """
        d_gate_o = dh * cache.c_tanh
        d_cell = dc + dh * cache.o * tanh_grad(cache.c_tanh)
        d_gate_f = d_cell * cache.c_prev
        d_gate_i = d_cell * cache.g
        d_candidate = d_cell * cache.i
        dc_prev = d_cell * cache.f

        d_pre = np.concatenate(
            [
                d_gate_i * sigmoid_grad(cache.i),
                d_gate_f * sigmoid_grad(cache.f),
                d_gate_o * sigmoid_grad(cache.o),
                d_candidate * tanh_grad(cache.g),
            ]
        )
        self.wx.grad += np.outer(d_pre, cache.x)
        self.wh.grad += np.outer(d_pre, cache.h_prev)
        self.bias.grad += d_pre
        dx = self.wx.value.T @ d_pre
        dh_prev = self.wh.value.T @ d_pre
        return dx, dh_prev, dc_prev


class LSTMEncoder(Module):
    """Run an :class:`LSTMCell` over a whole sequence, with BPTT.

    ``forward`` consumes a ``(T, input_dim)`` matrix and returns the
    ``(T, hidden_dim)`` hidden states plus the per-step caches;
    ``backward`` consumes gradients on every hidden state (e.g. from
    text attention) *and* optional extra gradients on the final
    hidden/cell state (e.g. the decoder initialisation, Figure 4's
    ``s_0 = h_n``) and returns input gradients.
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: RngLike = None) -> None:
        self.cell = LSTMCell(input_dim, hidden_dim, rng=rng)

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
    ) -> Tuple[np.ndarray, List[LSTMStepCache]]:
        """Run the LSTM over a ``(T, input_dim)`` sequence from ``(h0, c0)``."""
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 2 or inputs.shape[1] != self.cell.input_dim:
            raise ValueError(
                f"inputs must be (T, {self.cell.input_dim}), got {inputs.shape}"
            )
        if inputs.shape[0] == 0:
            raise ValueError("cannot encode an empty sequence")
        h, c = self.cell.initial_state()
        if h0 is not None:
            h = np.asarray(h0, dtype=np.float64)
        if c0 is not None:
            c = np.asarray(c0, dtype=np.float64)
        states = np.empty((inputs.shape[0], self.cell.hidden_dim))
        caches: List[LSTMStepCache] = []
        for t in range(inputs.shape[0]):
            h, c, cache = self.cell.step(inputs[t], h, c)
            states[t] = h
            caches.append(cache)
        return states, caches

    def backward(
        self,
        d_states: np.ndarray,
        caches: List[LSTMStepCache],
        d_h_final: Optional[np.ndarray] = None,
        d_c_final: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """BPTT; returns ``(d_inputs, d_h0, d_c0)``."""
        d_states = np.asarray(d_states, dtype=np.float64)
        steps = len(caches)
        if d_states.shape != (steps, self.cell.hidden_dim):
            raise ValueError(
                f"d_states must be ({steps}, {self.cell.hidden_dim}), "
                f"got {d_states.shape}"
            )
        d_inputs = np.empty((steps, self.cell.input_dim))
        dh = np.zeros(self.cell.hidden_dim)
        dc = np.zeros(self.cell.hidden_dim)
        if d_h_final is not None:
            dh = dh + np.asarray(d_h_final, dtype=np.float64)
        if d_c_final is not None:
            dc = dc + np.asarray(d_c_final, dtype=np.float64)
        for t in range(steps - 1, -1, -1):
            dh = dh + d_states[t]
            dx, dh, dc = self.cell.backward_step(dh, dc, caches[t])
            d_inputs[t] = dx
        return d_inputs, dh, dc
