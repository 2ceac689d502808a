"""Optimizers: convergence on a quadratic, clipping, bookkeeping."""

import numpy as np
import pytest

from repro.nn import Adam, Parameter, Tensor, clip_grad_norm


def quadratic_problem():
    """min ||x - target||^2 from a fixed start."""
    target = np.array([1.0, -2.0, 3.0])
    param = Parameter(np.zeros(3))

    def loss_and_grad():
        loss = ((param - Tensor(target)) ** 2).sum()
        param.grad = None
        loss.backward()
        return loss.item()

    return param, target, loss_and_grad


def test_adam_converges_on_quadratic():
    param, target, step_loss = quadratic_problem()
    opt = Adam([param], lr=0.1)
    for _ in range(400):
        step_loss()
        opt.step()
    np.testing.assert_allclose(param.data, target, atol=1e-3)


def test_adam_first_step_scale():
    # With bias correction, the very first Adam step is about lr * sign(grad).
    param = Parameter(np.zeros(2))
    param.grad = np.array([1.0, -4.0])
    opt = Adam([param], lr=0.01)
    opt.step()
    np.testing.assert_allclose(param.data, [-0.01, 0.01], atol=1e-6)


def test_optimizer_skips_parameters_without_grad():
    a, b = Parameter(np.ones(2)), Parameter(np.ones(2))
    a.grad = np.ones(2)
    opt = Adam([a, b], lr=0.5)
    opt.step()
    np.testing.assert_allclose(b.data, np.ones(2))
    np.testing.assert_allclose(a.data, 0.5 * np.ones(2))


def test_zero_grad_clears_all():
    a = Parameter(np.ones(2))
    a.grad = np.ones(2)
    opt = Adam([a], lr=0.1)
    opt.zero_grad()
    assert a.grad is None


def test_empty_parameter_list_rejected():
    with pytest.raises(ValueError):
        Adam([], lr=0.1)


def test_bad_learning_rate_rejected():
    with pytest.raises(ValueError):
        Adam([Parameter(np.ones(1))], lr=0.0)
    with pytest.raises(ValueError):
        Adam([Parameter(np.ones(1))], lr=-1.0)


class TestClipGradNorm:
    def test_scales_when_above_threshold(self):
        p = Parameter(np.zeros(4))
        p.grad = np.array([3.0, 4.0, 0.0, 0.0])  # norm 5
        norm = clip_grad_norm([p], max_norm=1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)
        np.testing.assert_allclose(p.grad, [0.6, 0.8, 0.0, 0.0])

    def test_untouched_when_below_threshold(self):
        p = Parameter(np.zeros(2))
        p.grad = np.array([0.3, 0.4])
        norm = clip_grad_norm([p], max_norm=5.0)
        assert norm == pytest.approx(0.5)
        np.testing.assert_allclose(p.grad, [0.3, 0.4])

    def test_global_norm_across_parameters(self):
        a, b = Parameter(np.zeros(1)), Parameter(np.zeros(1))
        a.grad, b.grad = np.array([3.0]), np.array([4.0])
        norm = clip_grad_norm([a, b], max_norm=2.5)
        assert norm == pytest.approx(5.0)
        total = np.sqrt(a.grad[0] ** 2 + b.grad[0] ** 2)
        assert total == pytest.approx(2.5)

    def test_no_grads_returns_zero(self):
        assert clip_grad_norm([Parameter(np.zeros(2))], 1.0) == 0.0
