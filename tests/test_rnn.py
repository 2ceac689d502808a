"""GRU stack: gradient checks, masking semantics, shapes."""

import numpy as np
import pytest

from repro.nn import GRU, GRUCell, Tensor

from .rnn_reference import cell_step
from .test_tensor import check_gradients


@pytest.mark.usefixtures("float64_tensors")
def test_grucell_gradients_numerically_correct():
    # Pins the step-wise oracle's hand-derived backward, which the fused
    # kernel's parity tests rely on.
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 3))
    h = rng.standard_normal((2, 4))

    def build(xt, ht):
        cell = GRUCell(3, 4, rng=np.random.default_rng(0))
        return (cell_step(cell, xt, ht) ** 2).sum()

    check_gradients(build, x, h, tol=1e-6)


def test_grucell_output_shape_and_range():
    cell = GRUCell(3, 5, rng=np.random.default_rng(0))
    out = cell_step(cell, Tensor(np.random.default_rng(1).standard_normal((4, 3))),
                    Tensor(np.zeros((4, 5))))
    assert out.shape == (4, 5)
    # h' is a convex combination of tanh candidate and previous h=0.
    assert np.abs(out.numpy()).max() < 1.0


def test_gru_runs_multi_layer_and_returns_all_steps():
    gru = GRU(3, 4, num_layers=3, rng=np.random.default_rng(0))
    out_seq, state = gru(Tensor(np.ones((5, 2, 3))))
    assert out_seq.shape == (5, 2, 4)
    assert len(state) == 3
    assert state[-1].shape == (2, 4)
    np.testing.assert_array_equal(out_seq.numpy()[-1], state[-1].numpy())


def test_gru_mask_freezes_padded_sequences():
    gru = GRU(3, 4, num_layers=2, rng=np.random.default_rng(0))
    x = np.random.default_rng(1).standard_normal((4, 2, 3))
    # Sequence 0 has length 4; sequence 1 has length 2.
    mask = np.array([[1, 1], [1, 1], [1, 0], [1, 0]], dtype=float)
    _, state = gru(Tensor(x), mask=mask)

    # Running only the first 2 steps for sequence 1 must match its final state.
    _, short_state = gru(Tensor(x[:2, 1:2]))
    np.testing.assert_allclose(state[-1].numpy()[1], short_state[-1].numpy()[0],
                               rtol=1e-5, atol=1e-6)


def test_gru_initial_state_is_zero():
    gru = GRU(2, 3, rng=np.random.default_rng(0))
    state = gru.initial_state(4)
    assert len(state) == 1
    np.testing.assert_array_equal(state[0].numpy(), np.zeros((4, 3)))


def test_gru_rejects_empty_input_and_bad_state():
    gru = GRU(2, 3, num_layers=2, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        gru(Tensor(np.zeros((0, 1, 2))))
    with pytest.raises(ValueError):
        gru(Tensor(np.zeros((1, 2))))
    with pytest.raises(ValueError):
        gru(Tensor(np.zeros((1, 1, 2))), h0=[Tensor(np.zeros((1, 3)))])


def test_gru_rejects_zero_layers():
    with pytest.raises(ValueError):
        GRU(2, 3, num_layers=0)


def test_gru_gradients_flow_through_time():
    gru = GRU(2, 3, num_layers=1, rng=np.random.default_rng(0))
    x_seq = Tensor(np.ones((4, 1, 2)), requires_grad=True)
    out_seq, _ = gru(x_seq)
    out_seq[-1].sum().backward()
    assert x_seq.grad is not None
    assert np.abs(x_seq.grad[0]).sum() > 0  # BPTT reaches the first step


def test_gru_deterministic_given_seed():
    a = GRU(3, 4, num_layers=2, rng=np.random.default_rng(5))
    b = GRU(3, 4, num_layers=2, rng=np.random.default_rng(5))
    x = Tensor(np.ones((1, 2, 3)))
    np.testing.assert_array_equal(a(x)[1][-1].numpy(), b(x)[1][-1].numpy())
