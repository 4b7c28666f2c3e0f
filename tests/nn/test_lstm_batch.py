"""Layer-level equivalence of the batched inference primitives.

Every vectorized op introduced for batched Phase-II scoring is checked
against its sequential reference applied row-wise: ``step_batch`` vs
``step``, masked batched attention vs
per-row attention over the unpadded memory, and the in-place softmax /
target log-prob kernels vs their 1-D counterparts.  The in-place
kernels never write their inputs.  Includes gradcheck-style
finite-difference spot checks that the batched step computes the same
smooth function (same directional derivatives), not merely the same
values at the sampled points.
"""

import numpy as np
import pytest

from repro.nn.attention import Attention
from repro.nn.functional import (
    log_normalizers,
    softmax,
    softmax_cross_entropy,
    softmax_inplace,
)
from repro.nn.gru import GRUCell
from repro.nn.lstm import LSTMCell

RNG = np.random.default_rng(20180611)


def _rows(shape):
    return RNG.standard_normal(shape)


def _mask_bias(mask):
    """The additive ``0 / −inf`` form of a boolean validity mask."""
    return np.where(mask, 0.0, -np.inf)


def _assert_inputs_kept(step_batch, inputs):
    """``step_batch(*inputs)`` leaves every input bit-unchanged and
    returns arrays that share no memory with any of them."""
    before = [array.copy() for array in inputs]
    outputs = step_batch(*inputs)
    for array, original in zip(inputs, before):
        np.testing.assert_array_equal(array, original)
        assert array.tobytes() == original.tobytes()
        for output in outputs:
            assert not np.shares_memory(output, array)


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

    def test_inputs_never_written(self):
        x, h0, c0 = _rows((4, 5)), _rows((4, 7)), _rows((4, 7))
        _assert_inputs_kept(self.cell.step_batch, (x, h0, c0))
        # Views into a wider block (as the decode passes them) too.
        block = _rows((4, 19))
        views = (block[:, :5], block[:, 5:12], block[:, 12:])
        _assert_inputs_kept(self.cell.step_batch, views)
        one_row = (_rows((1, 5)), _rows((1, 7)), _rows((1, 7)))
        _assert_inputs_kept(self.cell.step_batch, one_row)

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


class TestGRUBatch:
    def setup_method(self):
        self.cell = GRUCell(5, 7, rng=3)

    def test_step_batch_rows_match(self):
        batch = 6
        x, h0 = _rows((batch, 5)), _rows((batch, 7))
        h_batch, state = self.cell.step_batch(x, h0)
        assert state is h_batch  # GRU: the "cell" slot is the hidden state
        for row in range(batch):
            h, _, _ = self.cell.step(x[row], h0[row])
            np.testing.assert_allclose(h_batch[row], h, rtol=0, atol=1e-12)

    def test_step_batch_inputs_never_written(self):
        x, h0, c0 = _rows((4, 5)), _rows((4, 7)), _rows((4, 7))
        _assert_inputs_kept(self.cell.step_batch, (x, h0, c0))
        block = _rows((4, 12))
        _assert_inputs_kept(self.cell.step_batch, (block[:, :5], block[:, 5:]))
        _assert_inputs_kept(self.cell.step_batch, (_rows((1, 5)), _rows((1, 7))))

    def test_step_batch_ignores_cell_slot(self):
        x, h0 = _rows((2, 5)), _rows((2, 7))
        with_c, _ = self.cell.step_batch(x, h0, _rows((2, 7)))
        without_c, _ = self.cell.step_batch(x, h0)
        np.testing.assert_array_equal(with_c, without_c)


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
        contexts, weights = self.attention.forward_batch(
            queries, padded, _mask_bias(mask)
        )
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

    def test_contexts_written_into_out_view(self):
        queries, memory = _rows((3, 4)), _rows((3, 5, 4))
        bias = np.zeros((3, 5))
        bias[1, 2:] = -np.inf
        stacked = np.full((3, 12), 7.0)
        kept = [queries.copy(), memory.copy(), bias.copy()]
        contexts, _ = self.attention.forward_batch(
            queries, memory, bias, stacked[:, 4:8]
        )
        assert np.shares_memory(contexts, stacked)
        expected, _ = self.attention.forward_batch(queries, memory, bias)
        np.testing.assert_array_equal(stacked[:, 4:8], expected)
        assert (stacked[:, :4] == 7.0).all() and (stacked[:, 8:] == 7.0).all()
        for array, original in zip((queries, memory, bias), kept):
            np.testing.assert_array_equal(array, original)


class TestBatchedFunctional:
    """The in-place kernels that replaced the masked softmax and the
    batched target log-prob helper: ``softmax_inplace`` over scores
    carrying an additive ``0 / −inf`` mask, and ``logit[target] −
    log_normalizers(logits, bound)``."""

    def test_masked_softmax_equals_compacted_softmax(self):
        scores = _rows((4, 7))
        mask = np.zeros((4, 7), dtype=bool)
        lengths = [7, 2, 4, 1]
        for row, n in enumerate(lengths):
            mask[row, :n] = True
        out = softmax_inplace(scores + _mask_bias(mask))
        for row, n in enumerate(lengths):
            np.testing.assert_allclose(
                out[row, :n], softmax(scores[row, :n]), atol=1e-15
            )
            assert np.all(out[row, n:] == 0.0)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)

    def test_masked_softmax_none_mask_is_softmax(self):
        scores = _rows((3, 5))
        work = scores.copy()
        assert softmax_inplace(work) is work
        np.testing.assert_array_equal(work, softmax(scores))

    def test_masked_softmax_rejects_empty_rows(self):
        # A row with no valid position cannot be normalised: numpy
        # flags −inf − (−inf) — an error under this suite's
        # filterwarnings — and the row comes out NaN.  The decode never
        # builds one: every concept has at least one encoder state.
        scores = _rows((2, 3))
        scores[1] = -np.inf
        with pytest.warns(RuntimeWarning):
            out = softmax_inplace(scores)
        assert np.isnan(out[1]).all() and np.isfinite(out[0]).all()

    def test_masked_softmax_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            Attention().forward_batch(
                _rows((2, 4)), _rows((2, 3, 4)), np.zeros((2, 4))
            )

    def test_batched_target_log_probs_match_cross_entropy(self):
        logits = _rows((5, 11))
        targets = np.array([0, 10, 3, 7, 5])
        # The shift-free branch (a bound on every |logit|) and the
        # shifted one (no bound).
        for bound in (float(np.abs(logits).max()), np.inf):
            # log_normalizers works in place on its logits buffer.
            work = logits.copy()
            target = work[np.arange(5), targets]
            log_probs = target - log_normalizers(work, bound)
            for row in range(5):
                loss, _ = softmax_cross_entropy(logits[row], int(targets[row]))
                np.testing.assert_allclose(log_probs[row], -loss, atol=1e-12)
