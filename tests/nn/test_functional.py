"""Tests for activation/loss primitives and initialisers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn.functional import (
    SHIFT_FREE_LIMIT,
    log_normalizers,
    log_softmax,
    logit_bound,
    one_hot,
    sigmoid,
    sigmoid_grad,
    softmax,
    softmax_cross_entropy,
    tanh_grad,
)
from repro.nn.initializers import glorot_uniform, orthogonal, uniform, zeros

finite_vectors = arrays(
    np.float64,
    st.integers(min_value=1, max_value=12),
    elements=st.floats(min_value=-50, max_value=50),
)


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(np.zeros(1))[0] == pytest.approx(0.5)

    def test_extreme_values_stable(self):
        values = sigmoid(np.array([-1000.0, 1000.0]))
        assert values[0] == pytest.approx(0.0)
        assert values[1] == pytest.approx(1.0)
        assert np.isfinite(values).all()

    @given(finite_vectors)
    def test_range_and_monotonicity(self, x):
        y = sigmoid(np.sort(x))
        assert ((y >= 0) & (y <= 1)).all()
        assert (np.diff(y) >= -1e-12).all()

    def test_grad_formula(self):
        y = sigmoid(np.array([0.3]))
        assert sigmoid_grad(y)[0] == pytest.approx(y[0] * (1 - y[0]))


class TestSoftmax:
    @given(finite_vectors)
    def test_sums_to_one(self, logits):
        probabilities = softmax(logits)
        assert probabilities.sum() == pytest.approx(1.0)
        assert (probabilities >= 0).all()

    def test_shift_invariance(self):
        logits = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(softmax(logits), softmax(logits + 100))

    def test_extreme_stability(self):
        probabilities = softmax(np.array([1e9, 0.0, -1e9]))
        assert np.isfinite(probabilities).all()

    @given(finite_vectors)
    def test_log_softmax_consistent(self, logits):
        np.testing.assert_allclose(
            np.exp(log_softmax(logits)), softmax(logits), atol=1e-12
        )

    def test_axis_handling(self):
        matrix = np.array([[1.0, 2.0], [3.0, 1.0]])
        rows = softmax(matrix, axis=1)
        np.testing.assert_allclose(rows.sum(axis=1), [1.0, 1.0])


class TestCrossEntropy:
    def test_uniform_loss(self):
        loss, _ = softmax_cross_entropy(np.zeros(4), 2)
        assert loss == pytest.approx(np.log(4))

    def test_requires_1d(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((2, 2)), 0)

    def test_gradient_sums_to_zero(self):
        _, grad = softmax_cross_entropy(np.array([0.5, -0.2, 1.0]), 1)
        assert grad.sum() == pytest.approx(0.0)

    def test_one_hot(self):
        vector = one_hot(2, 4)
        np.testing.assert_array_equal(vector, [0, 0, 1, 0])
        with pytest.raises(IndexError):
            one_hot(4, 4)

    def test_tanh_grad(self):
        y = np.tanh(np.array([0.7]))
        assert tanh_grad(y)[0] == pytest.approx(1 - y[0] ** 2)


class TestLogNormalizers:
    """Eq. 9's normaliser: shift-free below the logit bound's limit."""

    @pytest.mark.parametrize("bound", [1.0, 50.0, 599.0])
    def test_shift_free_matches_shifted(self, bound):
        rng = np.random.default_rng(int(bound))
        logits = rng.uniform(-bound, bound, size=(7, 300))
        logits[0, :] = bound  # a row of ties at the bound
        logits[1, :] = -bound
        logits[2, 5] = bound
        assert bound < SHIFT_FREE_LIMIT
        shift_free = log_normalizers(logits.copy(), bound)
        shifted = log_normalizers(logits.copy())
        np.testing.assert_allclose(shift_free, shifted, rtol=0, atol=1e-12)
        expected = logits[:, 0] - log_softmax(logits)[:, 0]
        np.testing.assert_allclose(shift_free, expected, rtol=0, atol=1e-12)

    def test_shifted_branch_at_the_limit(self):
        # Logits past e^709.78 overflow unshifted: a bound at or above
        # the limit must take the shifted branch.
        logits = np.array([[750.0, 740.0, -750.0], [-760.0, -745.0, -770.0]])
        expected = logits[:, 0] - log_softmax(logits)[:, 0]
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = log_normalizers(logits.copy(), SHIFT_FREE_LIMIT)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_logit_bound_is_the_largest_tanh_logit(self):
        rng = np.random.default_rng(3)
        weight = rng.standard_normal((40, 6))
        bias = rng.standard_normal(40)
        bound = logit_bound(weight, bias)
        assert bound == np.max(np.abs(weight).sum(axis=1) + np.abs(bias))
        # No input in [-1, 1]^d gets a logit past it ...
        inputs = np.tanh(3.0 * rng.standard_normal((500, 6)))
        assert np.abs(inputs @ weight.T + bias).max() <= bound
        # ... and the corner that matches the widest row's signs hits it.
        widest = int(np.argmax(np.abs(weight).sum(axis=1) + np.abs(bias)))
        corner = np.sign(weight[widest]) * (1.0 if bias[widest] >= 0 else -1.0)
        assert abs(weight[widest] @ corner + bias[widest]) == pytest.approx(
            bound, rel=1e-12
        )


class TestInitializers:
    def test_zeros(self):
        assert zeros((2, 3)).sum() == 0.0

    def test_uniform_bounds_and_determinism(self):
        a = uniform((100,), scale=0.05, rng=3)
        b = uniform((100,), scale=0.05, rng=3)
        assert (np.abs(a) <= 0.05).all()
        np.testing.assert_array_equal(a, b)

    def test_uniform_invalid_scale(self):
        with pytest.raises(ValueError):
            uniform((2,), scale=0.0)

    def test_glorot_scale_shrinks_with_fanin(self):
        small = glorot_uniform((4, 4), rng=0)
        large = glorot_uniform((400, 400), rng=0)
        assert np.abs(large).max() < np.abs(small).max()

    @pytest.mark.parametrize("shape", [(5, 5), (7, 3), (3, 7)])
    def test_orthogonal_columns(self, shape):
        matrix = orthogonal(shape, rng=1)
        assert matrix.shape == shape
        rows, cols = shape
        if rows >= cols:
            product = matrix.T @ matrix
            np.testing.assert_allclose(product, np.eye(cols), atol=1e-10)
        else:
            product = matrix @ matrix.T
            np.testing.assert_allclose(product, np.eye(rows), atol=1e-10)

    def test_orthogonal_rejects_non_2d(self):
        with pytest.raises(ValueError):
            orthogonal((3,), rng=0)  # type: ignore[arg-type]
