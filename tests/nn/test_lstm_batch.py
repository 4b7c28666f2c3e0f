"""Layer-level equivalence of the batched inference primitives.

Every vectorized op introduced for batched Phase-II scoring is checked
against its sequential reference applied row-wise: ``step_batch`` vs
``step``, ``forward_batch`` vs ``forward``, masked batched attention vs
per-row attention over the unpadded memory, and the batched softmax /
log-prob helpers vs their 1-D counterparts.  Includes gradcheck-style
finite-difference spot checks that the batched step computes the same
smooth function (same directional derivatives), not merely the same
values at the sampled points.
"""

import numpy as np
import pytest

from repro.nn.attention import Attention
from repro.nn.functional import (
    batched_target_log_probs,
    masked_softmax,
    softmax,
    softmax_cross_entropy,
)
from repro.nn.gru import GRUCell, GRUEncoder
from repro.nn.lstm import LSTMCell, LSTMEncoder

RNG = np.random.default_rng(20180611)


def _rows(shape):
    return RNG.standard_normal(shape)


class TestLSTMStepBatch:
    def setup_method(self):
        self.cell = LSTMCell(5, 7, rng=1)

    def test_rows_match_sequential_step(self):
        batch = 6
        x, h0, c0 = _rows((batch, 5)), _rows((batch, 7)), _rows((batch, 7))
        h_batch, c_batch = self.cell.step_batch(x, h0, c0)
        assert h_batch.shape == (batch, 7) and c_batch.shape == (batch, 7)
        for row in range(batch):
            h, c, _ = self.cell.step(x[row], h0[row], c0[row])
            np.testing.assert_allclose(h_batch[row], h, rtol=0, atol=1e-12)
            np.testing.assert_allclose(c_batch[row], c, rtol=0, atol=1e-12)

    def test_single_row_batch(self):
        x, h0, c0 = _rows((1, 5)), _rows((1, 7)), _rows((1, 7))
        h_batch, c_batch = self.cell.step_batch(x, h0, c0)
        h, c, _ = self.cell.step(x[0], h0[0], c0[0])
        np.testing.assert_allclose(h_batch[0], h, atol=1e-12)
        np.testing.assert_allclose(c_batch[0], c, atol=1e-12)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            self.cell.step_batch(_rows((3, 4)), _rows((3, 7)), _rows((3, 7)))
        with pytest.raises(ValueError):
            self.cell.step_batch(_rows((3, 5)), _rows((2, 7)), _rows((3, 7)))
        with pytest.raises(ValueError):
            self.cell.step_batch(_rows(5), _rows(7), _rows(7))

    def test_finite_difference_directions_match_step(self):
        # Gradcheck-style: the batched op's numerical directional
        # derivative w.r.t. its inputs equals the sequential step's, so
        # the two compute the same differentiable function, not just the
        # same values at the sampled points.
        x, h0, c0 = _rows((3, 5)), _rows((3, 7)), _rows((3, 7))
        dx, dh, dc = _rows((3, 5)), _rows((3, 7)), _rows((3, 7))
        eps = 1e-6
        plus_b, _ = self.cell.step_batch(x + eps * dx, h0 + eps * dh, c0 + eps * dc)
        minus_b, _ = self.cell.step_batch(x - eps * dx, h0 - eps * dh, c0 - eps * dc)
        jvp_batch = (plus_b - minus_b) / (2 * eps)
        for row in range(3):
            plus, _, _ = self.cell.step(
                x[row] + eps * dx[row], h0[row] + eps * dh[row], c0[row] + eps * dc[row]
            )
            minus, _, _ = self.cell.step(
                x[row] - eps * dx[row], h0[row] - eps * dh[row], c0[row] - eps * dc[row]
            )
            np.testing.assert_allclose(
                jvp_batch[row], (plus - minus) / (2 * eps), rtol=0, atol=1e-9
            )


class TestLSTMForwardBatch:
    def setup_method(self):
        self.encoder = LSTMEncoder(4, 6, rng=2)

    def test_rows_match_sequential_forward(self):
        batch, steps = 5, 9
        inputs = _rows((batch, steps, 4))
        h0, c0 = _rows((batch, 6)), _rows((batch, 6))
        states = self.encoder.forward_batch(inputs, h0=h0, c0=c0)
        assert states.shape == (batch, steps, 6)
        for row in range(batch):
            reference, _ = self.encoder.forward(
                inputs[row], h0=h0[row], c0=c0[row]
            )
            np.testing.assert_allclose(states[row], reference, atol=1e-12)

    def test_default_zero_initial_state(self):
        inputs = _rows((3, 4, 4))
        states = self.encoder.forward_batch(inputs)
        for row in range(3):
            reference, _ = self.encoder.forward(inputs[row])
            np.testing.assert_allclose(states[row], reference, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            self.encoder.forward_batch(np.empty((0, 3, 4)))
        with pytest.raises(ValueError):
            self.encoder.forward_batch(np.empty((2, 0, 4)))
        with pytest.raises(ValueError):
            self.encoder.forward_batch(_rows((2, 3)))


class TestGRUBatch:
    def setup_method(self):
        self.cell = GRUCell(5, 7, rng=3)
        self.encoder = GRUEncoder(4, 6, rng=4)

    def test_step_batch_rows_match(self):
        batch = 6
        x, h0 = _rows((batch, 5)), _rows((batch, 7))
        h_batch, state = self.cell.step_batch(x, h0)
        assert state is h_batch  # GRU: the "cell" slot is the hidden state
        for row in range(batch):
            h, _, _ = self.cell.step(x[row], h0[row])
            np.testing.assert_allclose(h_batch[row], h, rtol=0, atol=1e-12)

    def test_step_batch_ignores_cell_slot(self):
        x, h0 = _rows((2, 5)), _rows((2, 7))
        with_c, _ = self.cell.step_batch(x, h0, _rows((2, 7)))
        without_c, _ = self.cell.step_batch(x, h0)
        np.testing.assert_array_equal(with_c, without_c)

    def test_forward_batch_rows_match(self):
        inputs = _rows((4, 7, 4))
        h0 = _rows((4, 6))
        states = self.encoder.forward_batch(inputs, h0=h0, c0=_rows((4, 6)))
        for row in range(4):
            reference, _ = self.encoder.forward(inputs[row], h0=h0[row])
            np.testing.assert_allclose(states[row], reference, atol=1e-12)


class TestBatchedAttention:
    def setup_method(self):
        self.attention = Attention()

    def test_masked_rows_match_unpadded_sequential(self):
        dim, batch, width = 6, 5, 8
        lengths = [8, 1, 3, 5, 8]
        queries = _rows((batch, dim))
        memories = [_rows((n, dim)) for n in lengths]
        padded = np.zeros((batch, width, dim))
        mask = np.zeros((batch, width), dtype=bool)
        for row, memory in enumerate(memories):
            padded[row, : lengths[row]] = memory
            mask[row, : lengths[row]] = True
        contexts, weights = self.attention.forward_batch(queries, padded, mask)
        for row, memory in enumerate(memories):
            context, reference_weights, _ = self.attention.forward(
                queries[row], memory
            )
            np.testing.assert_allclose(contexts[row], context, atol=1e-12)
            np.testing.assert_allclose(
                weights[row, : lengths[row]], reference_weights, atol=1e-12
            )
            # Padding carries exactly zero attention mass.
            assert np.all(weights[row, lengths[row] :] == 0.0)

    def test_no_mask_means_uniform_lengths(self):
        queries = _rows((3, 4))
        memory = _rows((3, 5, 4))
        contexts, weights = self.attention.forward_batch(queries, memory)
        for row in range(3):
            context, reference_weights, _ = self.attention.forward(
                queries[row], memory[row]
            )
            np.testing.assert_allclose(contexts[row], context, atol=1e-12)
            np.testing.assert_allclose(weights[row], reference_weights, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            self.attention.forward_batch(_rows((2, 4)), _rows((2, 4)))
        with pytest.raises(ValueError):
            self.attention.forward_batch(_rows((2, 4)), _rows((3, 5, 4)))
        with pytest.raises(ValueError):
            self.attention.forward_batch(_rows((2, 4)), np.empty((2, 0, 4)))


class TestBatchedFunctional:
    def test_masked_softmax_equals_compacted_softmax(self):
        scores = _rows((4, 7))
        mask = np.zeros((4, 7), dtype=bool)
        lengths = [7, 2, 4, 1]
        for row, n in enumerate(lengths):
            mask[row, :n] = True
        out = masked_softmax(scores, mask)
        for row, n in enumerate(lengths):
            np.testing.assert_allclose(
                out[row, :n], softmax(scores[row, :n]), atol=1e-15
            )
            assert np.all(out[row, n:] == 0.0)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)

    def test_masked_softmax_none_mask_is_softmax(self):
        scores = _rows((3, 5))
        np.testing.assert_array_equal(
            masked_softmax(scores, None), softmax(scores)
        )

    def test_masked_softmax_rejects_empty_rows(self):
        mask = np.ones((2, 3), dtype=bool)
        mask[1] = False
        with pytest.raises(ValueError):
            masked_softmax(_rows((2, 3)), mask)

    def test_masked_softmax_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            masked_softmax(_rows((2, 3)), np.ones((2, 4), dtype=bool))

    def test_batched_target_log_probs_match_cross_entropy(self):
        logits = _rows((5, 11))
        targets = np.array([0, 10, 3, 7, 5])
        # The function works in place on its logits buffer.
        log_probs = batched_target_log_probs(logits.copy(), targets)
        for row in range(5):
            loss, _ = softmax_cross_entropy(logits[row], int(targets[row]))
            np.testing.assert_allclose(log_probs[row], -loss, atol=1e-12)

    def test_batched_target_log_probs_validation(self):
        with pytest.raises(ValueError):
            batched_target_log_probs(_rows(4), np.array([0]))
        with pytest.raises(ValueError):
            batched_target_log_probs(_rows((2, 4)), np.array([0]))
        with pytest.raises(IndexError):
            batched_target_log_probs(_rows((2, 4)), np.array([0, 4]))
