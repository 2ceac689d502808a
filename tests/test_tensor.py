"""Autograd engine tests: op semantics, broadcasting, gradient checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, concat, stack
from repro.nn.functional import log_softmax, logsumexp
from repro.nn.tensor import _unbroadcast

from .rnn_reference import where_const


def numeric_gradient(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar f() with respect to x (in place)."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        original = x[i]
        x[i] = original + eps
        up = f()
        x[i] = original - eps
        down = f()
        x[i] = original
        grad[i] = (up - down) / (2 * eps)
        it.iternext()
    return grad


def check_gradients(build, *arrays, tol=1e-7):
    """Assert autograd gradients of ``build(*tensors)`` match numeric ones."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(*tensors)
    out.backward()
    for tensor, array in zip(tensors, arrays):
        expected = numeric_gradient(
            lambda: build(*[Tensor(a) for a in arrays]).item(), array)
        assert tensor.grad is not None
        np.testing.assert_allclose(tensor.grad, expected, atol=tol, rtol=1e-5)


@pytest.mark.usefixtures("float64_tensors")
class TestGradients:
    def setup_method(self):
        self.rng = np.random.default_rng(42)

    def test_add_mul(self):
        a = self.rng.standard_normal((3, 4))
        b = self.rng.standard_normal((3, 4))
        check_gradients(lambda x, y: ((x + y) * x).sum(), a, b)

    def test_broadcast_add(self):
        a = self.rng.standard_normal((3, 4))
        b = self.rng.standard_normal((4,))
        check_gradients(lambda x, y: (x + y).sum(), a, b)

    def test_broadcast_mul_keepdim(self):
        a = self.rng.standard_normal((2, 3, 4))
        b = self.rng.standard_normal((1, 3, 1))
        check_gradients(lambda x, y: (x * y).sum(), a, b)

    def test_div(self):
        a = self.rng.standard_normal((3, 3))
        b = self.rng.uniform(0.5, 2.0, (3, 3))
        check_gradients(lambda x, y: (x / y).sum(), a, b)

    def test_pow(self):
        a = self.rng.uniform(0.5, 2.0, (4,))
        check_gradients(lambda x: (x ** 3).sum(), a)

    def test_matmul(self):
        a = self.rng.standard_normal((3, 5))
        b = self.rng.standard_normal((5, 2))
        check_gradients(lambda x, y: (x @ y).sum(), a, b)

    def test_matmul_batched(self):
        a = self.rng.standard_normal((2, 3, 4))
        b = self.rng.standard_normal((2, 4, 5))
        check_gradients(lambda x, y: (x @ y).sum(), a, b)

    def test_nonlinearities(self):
        a = self.rng.standard_normal((3, 4))
        check_gradients(lambda x: x.exp().sum(), a)
        b = self.rng.uniform(0.5, 3.0, (3, 4))
        check_gradients(lambda x: x.log().sum(), b)

    def test_sum_axis(self):
        a = self.rng.standard_normal((3, 4, 2))
        check_gradients(lambda x: (x.sum(axis=1) ** 2).sum(), a)
        check_gradients(lambda x: (x.sum(axis=2, keepdims=True) * x).sum(), a)

    def test_mean(self):
        a = self.rng.standard_normal((4, 5))
        check_gradients(lambda x: (x.mean(axis=0) ** 2).sum(), a)

    def test_reshape_transpose(self):
        a = self.rng.standard_normal((3, 4))
        check_gradients(lambda x: (x.reshape(2, 6) ** 2).sum(), a)
        check_gradients(lambda x: (x.T @ x).sum(), a)

    def test_getitem_slice(self):
        a = self.rng.standard_normal((4, 6))
        check_gradients(lambda x: (x[:, 1:4] ** 2).sum(), a)

    def test_getitem_fancy(self):
        a = self.rng.standard_normal((5, 3))
        idx = np.array([0, 2, 2, 4])  # repeats must accumulate
        check_gradients(lambda x: (x[idx] ** 2).sum(), a)

    def test_take_rows(self):
        a = self.rng.standard_normal((6, 3))
        idx = np.array([[0, 1], [1, 5]])
        check_gradients(lambda x: (x.take_rows(idx) ** 2).sum(), a)

    def test_concat_stack(self):
        a = self.rng.standard_normal((2, 3))
        b = self.rng.standard_normal((2, 3))
        check_gradients(lambda x, y: (concat([x, y], axis=1) ** 2).sum(), a, b)
        check_gradients(lambda x, y: (stack([x, y], axis=0) ** 2).sum(), a, b)

    def test_where_const(self):
        # The step-wise RNN oracle masks padded steps with this select.
        a = self.rng.standard_normal((3, 4))
        b = self.rng.standard_normal((3, 4))
        cond = self.rng.random((3, 4)) > 0.5
        check_gradients(lambda x, y: (where_const(cond, x, y) ** 2).sum(), a, b)

    def test_log_softmax(self):
        a = self.rng.standard_normal((4, 7))
        check_gradients(lambda x: log_softmax(x, axis=1)[np.arange(4),
                                                         [0, 3, 6, 2]].sum(), a)

    def test_logsumexp(self):
        a = self.rng.standard_normal((3, 5)) * 10
        check_gradients(lambda x: logsumexp(x, axis=1).sum(), a)


@pytest.mark.usefixtures("float64_tensors")
class TestSemantics:
    def test_scalar_backward_requires_scalar(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()

    def test_backward_without_grad_flag(self):
        t = Tensor(np.ones(3))
        with pytest.raises(RuntimeError):
            t.backward()

    def test_grad_accumulates_across_backwards(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        (t * 3).sum().backward()
        (t * 3).sum().backward()
        np.testing.assert_allclose(t.grad, [6.0])

    def test_diamond_graph(self):
        # y = x*x + x*x must give grad 4x (shared subexpression counted twice).
        t = Tensor(np.array([3.0]), requires_grad=True)
        shared = t * t
        (shared + shared).sum().backward()
        np.testing.assert_allclose(t.grad, [12.0])

    def test_logsumexp_extreme_values_stable(self):
        x = Tensor(np.array([[1000.0, 1000.0], [-1000.0, -1000.0]]))
        out = logsumexp(x, axis=1).numpy()
        np.testing.assert_allclose(out, [1000.0 + np.log(2), -1000.0 + np.log(2)])

    def test_matmul_vector_cases(self):
        a = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        v = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        out = (a @ v).sum()
        out.backward()
        np.testing.assert_allclose(v.grad, a.data.sum(axis=0))


@pytest.mark.usefixtures("float64_tensors")
@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(1, 4), cols=st.integers(1, 4),
    broadcast_rows=st.booleans(), broadcast_cols=st.booleans(),
)
def test_unbroadcast_inverts_broadcasting(rows, cols, broadcast_rows,
                                          broadcast_cols):
    shape = (1 if broadcast_rows else rows, 1 if broadcast_cols else cols)
    grad = np.ones((rows, cols))
    reduced = _unbroadcast(grad, shape)
    assert reduced.shape == shape
    # Total mass is preserved: summing over broadcast axes loses nothing.
    assert reduced.sum() == pytest.approx(grad.sum())


@pytest.mark.usefixtures("float64_tensors")
@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=1, max_size=8))
def test_add_mul_match_numpy(values):
    array = np.array(values)
    t = Tensor(array)
    np.testing.assert_allclose((t + t).numpy(), array + array)
    np.testing.assert_allclose((t * 3.0).numpy(), array * 3.0)
    np.testing.assert_allclose((-t).numpy(), -array)
