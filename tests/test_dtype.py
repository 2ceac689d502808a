"""Default-dtype switching and mixed-precision behaviour."""

import numpy as np
import pytest

from repro.nn import (GRU, LSTM, Adam, Embedding, Linear, Tensor,
                      get_default_dtype, set_default_dtype)

from .rnn_reference import stepwise_forward


def test_library_default_is_float32():
    # The shipped default trades precision for CPU speed (see tensor.py).
    assert np.dtype(get_default_dtype()) == np.dtype(np.float32)


def test_set_default_dtype_round_trip():
    previous = get_default_dtype()
    try:
        set_default_dtype(np.float64)
        assert Tensor(np.zeros(3, dtype=np.float32)).data.dtype == np.float64
        set_default_dtype(np.float32)
        assert Tensor([1.0, 2.0]).data.dtype == np.float32
    finally:
        set_default_dtype(previous)


def test_rejects_non_float_dtypes():
    with pytest.raises(ValueError):
        set_default_dtype(np.int64)
    with pytest.raises(ValueError):
        set_default_dtype(np.float16)


def test_ops_preserve_dtype():
    t = Tensor(np.ones((3, 3)))
    dtype = t.data.dtype
    assert (t + t).data.dtype == dtype
    assert (t * 2.0).data.dtype == dtype
    assert (t @ t).data.dtype == dtype
    assert t.tanh().data.dtype == dtype
    assert t.sum(axis=0).data.dtype == dtype


def test_gradients_match_parameter_dtype():
    layer = Linear(4, 2, rng=np.random.default_rng(0))
    out = layer(Tensor(np.ones((3, 4)))).sum()
    out.backward()
    assert layer.weight.grad.dtype == layer.weight.data.dtype


def test_training_step_in_float32_is_finite():
    rng = np.random.default_rng(0)
    emb = Embedding(10, 8, rng=rng)
    gru = GRU(8, 8, rng=rng)
    proj = Linear(8, 10, rng=rng)
    params = emb.parameters() + gru.parameters() + proj.parameters()
    opt = Adam(params, lr=1e-3)
    for _ in range(3):
        out_seq, _ = gru(emb(rng.integers(0, 10, size=(5, 4))))
        loss = (proj(out_seq[-1]) ** 2).mean()
        opt.zero_grad()
        loss.backward()
        opt.step()
        assert np.isfinite(loss.item())
    assert all(np.isfinite(p.data).all() for p in params)


@pytest.mark.parametrize("rnn_cls", [GRU, LSTM])
def test_rnn_forward_stays_float32_and_tracks_the_oracle(rnn_cls):
    rnn = rnn_cls(3, 4, num_layers=2, rng=np.random.default_rng(0))
    x = np.random.default_rng(1).standard_normal((5, 2, 3))
    mask = np.array([[1, 1], [1, 1], [1, 1], [1, 0], [1, 0]])
    out_seq, _ = rnn(Tensor(x), mask=mask)
    assert out_seq.data.dtype == np.float32
    outputs, _ = stepwise_forward(rnn, [Tensor(x[t]) for t in range(5)],
                                  mask=mask)
    np.testing.assert_allclose(out_seq.numpy(),
                               np.stack([o.numpy() for o in outputs]),
                               atol=1e-5)
