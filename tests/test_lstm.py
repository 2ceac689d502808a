"""LSTM stack and the GRU-vs-LSTM model option."""

import numpy as np
import pytest

from repro.core import EncoderDecoder, ModelConfig
from repro.nn import Tensor
from repro.nn.lstm import LSTM, LSTMCell

from .rnn_reference import cell_step
from .test_tensor import check_gradients


@pytest.mark.usefixtures("float64_tensors")
def test_lstmcell_gradients_h_path():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 3))
    h = rng.standard_normal((2, 4))
    c = rng.standard_normal((2, 4))

    def build(xt, ht, ct):
        cell = LSTMCell(3, 4, rng=np.random.default_rng(0))
        new_h, _ = cell_step(cell, xt, ht, ct)
        return (new_h ** 2).sum()

    check_gradients(build, x, h, c, tol=1e-6)


@pytest.mark.usefixtures("float64_tensors")
def test_lstmcell_gradients_joint_h_and_c_path():
    """Both outputs used: the shared backward must sum contributions."""
    rng = np.random.default_rng(8)
    x = rng.standard_normal((2, 3))
    h = rng.standard_normal((2, 4))
    c = rng.standard_normal((2, 4))

    def build(xt, ht, ct):
        cell = LSTMCell(3, 4, rng=np.random.default_rng(0))
        new_h, new_c = cell_step(cell, xt, ht, ct)
        return (new_h ** 2).sum() + (new_c ** 3).sum()

    check_gradients(build, x, h, c, tol=1e-6)


def test_forget_gate_bias_initialized_to_one():
    cell = LSTMCell(2, 3, rng=np.random.default_rng(0))
    np.testing.assert_allclose(cell.b_ih.numpy()[3:6], 1.0)


def test_lstm_stack_shapes():
    lstm = LSTM(3, 5, num_layers=2, rng=np.random.default_rng(0))
    out_seq, state = lstm(Tensor(np.ones((6, 4, 3))))
    assert out_seq.shape == (6, 4, 5)
    assert len(state) == 2
    h, c = state[-1]
    assert h.shape == (4, 5) and c.shape == (4, 5)
    assert len(LSTM.hidden_of(state)) == 2


def test_lstm_masking_freezes_short_sequences():
    lstm = LSTM(3, 4, num_layers=1, rng=np.random.default_rng(0))
    x = np.random.default_rng(1).standard_normal((4, 2, 3))
    mask = np.array([[1, 1], [1, 1], [1, 0], [1, 0]], dtype=float)
    _, state = lstm(Tensor(x), mask=mask)
    _, short_state = lstm(Tensor(x[:2, 1:2]))
    np.testing.assert_allclose(state[-1][0].numpy()[1],
                               short_state[-1][0].numpy()[0],
                               rtol=1e-5, atol=1e-6)


def test_lstm_validation():
    with pytest.raises(ValueError):
        LSTM(2, 3, num_layers=0)
    lstm = LSTM(2, 3, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        lstm(Tensor(np.zeros((0, 1, 2))))


def test_encoder_decoder_lstm_option(vocab):
    model = EncoderDecoder(ModelConfig(vocab.size, 12, 12, num_layers=1,
                                       dropout=0.0, rnn_type="lstm", seed=0))
    src = np.array([[5, 6], [7, 8], [9, 4]])
    mask = np.ones((3, 2))
    v, state = model.encode(src, mask)
    assert v.shape == (2, 12)
    decoded = model.greedy_decode(src, mask, max_len=5)
    assert len(decoded) == 2


def test_invalid_rnn_type_rejected(vocab):
    with pytest.raises(ValueError):
        ModelConfig(vocab.size, rnn_type="transformer")


def test_lstm_trains_on_tiny_task(vocab, trips):
    """End-to-end: an LSTM seq2seq step reduces the loss like the GRU."""
    from repro.core import LossSpec, Trainer, TrainingConfig
    from repro.data import TrainingDataPipeline
    dataset = TrainingDataPipeline(trips[:6], vocab, dropping_rates=(0.0,),
                                   distorting_rates=(0.0,)).materialize()
    model = EncoderDecoder(ModelConfig(vocab.size, 12, 12, num_layers=1,
                                       dropout=0.0, rnn_type="lstm", seed=0))
    trainer = Trainer(model, vocab, LossSpec(kind="L1"),
                      TrainingConfig(batch_size=6, max_epochs=3))
    result = trainer.fit(dataset)
    assert result.train_losses[-1] < result.train_losses[0]
