"""Sequence-fused RNN kernels: parity with step-wise cells, BPTT gradients.

The fused kernels (:func:`gru_layer_forward`, :func:`lstm_layer_forward`)
hand-derive backward-through-time instead of relying on the tape, so these
tests pin them twice over: exact forward/backward parity against the
step-wise oracle in :mod:`tests.rnn_reference`, and central-difference
numeric gradients for every input and parameter.  The encoder-decoder
tests swap the oracle in for whole stacks, so encoding, teacher-forced
decoding and greedy/beam generation (``T = 1`` calls) are all pinned.
"""

import copy

import numpy as np
import pytest

from repro.core.encoder_decoder import EncoderDecoder, ModelConfig
from repro.nn import GRU, Module, Tensor, stack
from repro.nn.lstm import lstm_layer_forward
from repro.nn.rnn import gru_layer_forward
from repro.spatial.vocab import BOS, EOS

from .rnn_reference import (gru_cell_forward, lstm_cell_forward,
                            stepwise_forward)
from .test_tensor import check_gradients

T_STEPS, BATCH, IN_SIZE, HIDDEN = 5, 3, 4, 6

#: Ragged lengths 5/3/1 — exercises carried state on padded steps.
MASK = np.array([[1, 1, 1],
                 [1, 1, 0],
                 [1, 1, 0],
                 [1, 0, 0],
                 [1, 0, 0]], dtype=float)


def _params(rng, in_size=IN_SIZE, hidden=HIDDEN, gates=3):
    return (rng.standard_normal((in_size, gates * hidden)) * 0.4,
            rng.standard_normal((hidden, gates * hidden)) * 0.4,
            rng.standard_normal(gates * hidden) * 0.1,
            rng.standard_normal(gates * hidden) * 0.1)


# ---------------------------------------------------------------------------
# Fused layer kernels vs. step-wise cells
# ---------------------------------------------------------------------------

@pytest.mark.usefixtures("float64_tensors")
@pytest.mark.parametrize("mask", [None, MASK], ids=["dense", "ragged"])
@pytest.mark.parametrize("with_h0", [False, True], ids=["zero-h0", "h0"])
def test_gru_fused_matches_stepwise_forward_and_backward(mask, with_h0):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((T_STEPS, BATCH, IN_SIZE))
    h0 = rng.standard_normal((BATCH, HIDDEN)) if with_h0 else None
    arrays = _params(rng)

    def run(layer_kernel):
        params = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        xs = Tensor(x.copy(), requires_grad=True)
        hs = Tensor(h0.copy(), requires_grad=True) if with_h0 else None
        if layer_kernel:
            out_seq, h_last = gru_layer_forward(xs, hs, *params, mask=mask)
            out = out_seq
        else:
            h = hs if hs is not None else Tensor(np.zeros((BATCH, HIDDEN)))
            steps = []
            for t in range(T_STEPS):
                new_h = gru_cell_forward(xs[t], h, *params)
                if mask is not None:
                    m = Tensor(mask[t][:, None])
                    new_h = h + m * (new_h - h)
                h = new_h
                steps.append(h)
            out, h_last = stack(steps, axis=0), h
        ((out * out).sum() + (h_last * h_last).sum()).backward()
        grads = [p.grad for p in params] + [xs.grad]
        if hs is not None:
            grads.append(hs.grad)
        return out.numpy(), h_last.numpy(), grads

    fused_out, fused_h, fused_grads = run(True)
    ref_out, ref_h, ref_grads = run(False)
    np.testing.assert_allclose(fused_out, ref_out, atol=1e-12)
    np.testing.assert_allclose(fused_h, ref_h, atol=1e-12)
    for got, want in zip(fused_grads, ref_grads):
        np.testing.assert_allclose(got, want, atol=1e-12)


@pytest.mark.usefixtures("float64_tensors")
@pytest.mark.parametrize("mask", [None, MASK], ids=["dense", "ragged"])
def test_lstm_fused_matches_stepwise_forward_and_backward(mask):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((T_STEPS, BATCH, IN_SIZE))
    h0 = rng.standard_normal((BATCH, HIDDEN))
    c0 = rng.standard_normal((BATCH, HIDDEN))
    arrays = _params(rng, gates=4)

    def run(layer_kernel):
        params = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        xs = Tensor(x.copy(), requires_grad=True)
        hs = Tensor(h0.copy(), requires_grad=True)
        cs = Tensor(c0.copy(), requires_grad=True)
        if layer_kernel:
            out, h_last, c_last = lstm_layer_forward(xs, hs, cs, *params,
                                                     mask=mask)
        else:
            h, c = hs, cs
            steps = []
            for t in range(T_STEPS):
                new_h, new_c = lstm_cell_forward(xs[t], h, c, *params)
                if mask is not None:
                    m = Tensor(mask[t][:, None])
                    new_h = h + m * (new_h - h)
                    new_c = c + m * (new_c - c)
                h, c = new_h, new_c
                steps.append(h)
            out, h_last, c_last = stack(steps, axis=0), h, c
        ((out * out).sum() + (h_last * h_last).sum()
         + (c_last * c_last).sum()).backward()
        grads = [p.grad for p in params] + [xs.grad, hs.grad, cs.grad]
        return out.numpy(), h_last.numpy(), c_last.numpy(), grads

    fused = run(True)
    ref = run(False)
    for got, want in zip(fused[:3], ref[:3]):
        np.testing.assert_allclose(got, want, atol=1e-12)
    for got, want in zip(fused[3], ref[3]):
        np.testing.assert_allclose(got, want, atol=1e-12)


# ---------------------------------------------------------------------------
# Numeric gradients pin the hand-derived BPTT closures
# ---------------------------------------------------------------------------

@pytest.mark.usefixtures("float64_tensors")
def test_gru_layer_gradients_numerically_correct():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((4, 2, 3)) * 0.5
    h0 = rng.standard_normal((2, 5)) * 0.5
    arrays = _params(rng, in_size=3, hidden=5)
    mask = np.array([[1, 1], [1, 1], [1, 0], [1, 0]], dtype=float)

    def build(xs, hs, *params):
        out_seq, h_last = gru_layer_forward(xs, hs, *params, mask=mask)
        return (out_seq * out_seq).sum() + (h_last * h_last).sum()

    check_gradients(build, x, h0, *arrays, tol=1e-6)


@pytest.mark.usefixtures("float64_tensors")
def test_lstm_layer_gradients_numerically_correct():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((4, 2, 3)) * 0.5
    h0 = rng.standard_normal((2, 5)) * 0.5
    c0 = rng.standard_normal((2, 5)) * 0.5
    arrays = _params(rng, in_size=3, hidden=5, gates=4)
    mask = np.array([[1, 1], [1, 1], [1, 0], [1, 0]], dtype=float)

    def build(xs, hs, cs, *params):
        out_seq, h_last, c_last = lstm_layer_forward(xs, hs, cs, *params,
                                                     mask=mask)
        return ((out_seq * out_seq).sum() + (h_last * h_last).sum()
                + (c_last * c_last).sum())

    check_gradients(build, x, h0, c0, *arrays, tol=1e-6)


@pytest.mark.usefixtures("float64_tensors")
def test_lstm_c_last_only_gradient():
    """The staged c_last grad must flow even when out_seq is unused."""
    rng = np.random.default_rng(17)
    x = rng.standard_normal((3, 2, 3)) * 0.5
    c0 = rng.standard_normal((2, 4)) * 0.5
    arrays = _params(rng, in_size=3, hidden=4, gates=4)

    def build(xs, cs, *params):
        _, _, c_last = lstm_layer_forward(
            xs, Tensor(np.zeros((2, 4))), cs, *params)
        return (c_last * c_last).sum()

    check_gradients(build, x, c0, *arrays, tol=1e-6)


@pytest.mark.usefixtures("float64_tensors")
def test_fused_stack_gradients_with_dropout():
    """Multi-layer GRU.forward (dropout active) against numeric grads.

    Rebuilding the module with a fixed seed inside ``build`` makes the
    dropout masks identical across numeric-gradient evaluations.
    """
    rng = np.random.default_rng(19)
    x = rng.standard_normal((3, 2, 3)) * 0.5

    def build(xs):
        gru = GRU(3, 4, num_layers=2, dropout=0.3,
                  rng=np.random.default_rng(0))
        gru.dropout._rng = np.random.default_rng(99)
        out_seq, state = gru(xs)
        return (out_seq * out_seq).sum() + (state[-1] * state[-1]).sum()

    check_gradients(build, x, tol=1e-6)


# ---------------------------------------------------------------------------
# Fused (T, B) embedding gather
# ---------------------------------------------------------------------------

@pytest.mark.usefixtures("float64_tensors")
def test_fused_embedding_gather_accumulates_repeated_tokens():
    from repro.nn.layers import Embedding
    emb = Embedding(6, 3, rng=np.random.default_rng(0))
    tokens = np.array([[1, 4, 1], [1, 2, 2]])  # token 1 appears 3x

    out = emb(tokens)
    assert out.shape == (2, 3, 3)
    upstream = np.arange(out.data.size, dtype=float).reshape(out.shape)
    out.backward(upstream)

    expected = np.zeros((6, 3))
    np.add.at(expected, tokens.reshape(-1), upstream.reshape(-1, 3))
    np.testing.assert_allclose(emb.weight.grad, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# EncoderDecoder: the one RNN path vs. the step-wise oracle
# ---------------------------------------------------------------------------

class _StepwiseStack(Module):
    """Runs a GRU/LSTM stack through the step-wise oracle, with the
    module's ``forward(x_seq, h0, mask)`` signature."""

    def __init__(self, rnn):
        super().__init__()
        self.rnn = rnn

    def forward(self, x_seq, h0=None, mask=None):
        steps = [x_seq[t] for t in range(x_seq.shape[0])]
        outputs, state = stepwise_forward(self.rnn, steps, h0, mask)
        return stack(outputs, axis=0), state


def _stepwise_twin(model):
    """The same model (shared parameters) with both stacks on the oracle."""
    twin = copy.copy(model)
    twin.encoder = _StepwiseStack(model.encoder)
    twin.decoder = _StepwiseStack(model.decoder)
    return twin


def _toy_model(rnn_type, vocab=12):
    return EncoderDecoder(ModelConfig(
        vocab_size=vocab, embedding_size=5, hidden_size=6, num_layers=2,
        dropout=0.1, rnn_type=rnn_type, seed=2))


def _toy_batch(rng, vocab=12, t_steps=6, batch=3):
    lengths = [t_steps, t_steps - 2, t_steps - 4]
    src = np.zeros((t_steps, batch), dtype=np.int64)
    mask = np.zeros((t_steps, batch))
    for b, length in enumerate(lengths):
        src[:length, b] = rng.integers(4, vocab, size=length)
        mask[:length, b] = 1.0
    return src, mask


@pytest.mark.usefixtures("float64_tensors")
@pytest.mark.parametrize("rnn_type", ["gru", "lstm"])
def test_encoder_decoder_fused_matches_stepwise(rnn_type):
    model = _toy_model(rnn_type)
    model.eval()  # dropout draws differ between paths; parity is eval-mode
    rng = np.random.default_rng(23)
    src, src_mask = _toy_batch(rng)

    outputs = []
    for runner in (model, _stepwise_twin(model)):
        model.zero_grad()
        v, state = runner.encode(src, src_mask)
        hidden = runner.decode(src, state, src_mask)
        ((v * v).sum() + (hidden * hidden).sum()).backward()
        grads = {name: p.grad.copy() for name, p in model.named_parameters()
                 if p.grad is not None}
        outputs.append((v.numpy().copy(), hidden.numpy().copy(), grads))
    (v, hidden, grads), (ref_v, ref_hidden, ref_grads) = outputs
    np.testing.assert_allclose(v, ref_v, atol=1e-12)
    np.testing.assert_allclose(hidden, ref_hidden, atol=1e-12)
    assert grads.keys() == ref_grads.keys()
    assert "encoder.cells.0.w_ih" in grads
    for name in grads:
        np.testing.assert_allclose(grads[name], ref_grads[name], atol=1e-12)


@pytest.mark.usefixtures("float64_tensors")
@pytest.mark.parametrize("rnn_type", ["gru", "lstm"])
def test_vectorized_greedy_decode_matches_per_column_loop(rnn_type):
    model = _toy_model(rnn_type)
    rng = np.random.default_rng(29)
    src, src_mask = _toy_batch(rng)

    got = model.greedy_decode(src, src_mask, max_len=8)

    # Reference: decode one batch column at a time through the step-wise
    # oracle and an explicit Python loop (the pre-vectorization algorithm).
    model.eval()
    twin = _stepwise_twin(model)
    expected = []
    _, state = twin.encode(src, src_mask)
    for b in range(src.shape[1]):
        column = model._select_column(state, b)
        tokens, token = [], BOS
        for _ in range(8):
            step = model.embedding(np.array([token]))
            _, column = stepwise_forward(model.decoder, [step], h0=column)
            scores = model.logits(model._top_hidden(column)).numpy()[0]
            scores[BOS] = -np.inf
            token = int(scores.argmax())
            if token == EOS:
                break
            tokens.append(token)
        expected.append(np.array(tokens, dtype=np.int64))

    assert len(got) == len(expected)
    for got_seq, want_seq in zip(got, expected):
        np.testing.assert_array_equal(got_seq, want_seq)


@pytest.mark.usefixtures("float64_tensors")
@pytest.mark.parametrize("rnn_type", ["gru", "lstm"])
def test_beam_decode_matches_stepwise(rnn_type):
    model = _toy_model(rnn_type)
    rng = np.random.default_rng(37)
    src, src_mask = _toy_batch(rng)

    got = model.beam_decode(src, src_mask, beam_width=3, max_len=8)
    want = _stepwise_twin(model).beam_decode(src, src_mask, beam_width=3,
                                             max_len=8)
    assert len(got) == len(want) == src.shape[1]
    for got_seq, want_seq in zip(got, want):
        np.testing.assert_array_equal(got_seq, want_seq)


@pytest.mark.parametrize("rnn_type", ["gru", "lstm"])
def test_fused_training_step_runs_with_dropout(rnn_type):
    """Smoke: the default (fused) path trains with dropout active."""
    from repro.core.losses import LossSpec, sequence_loss
    model = _toy_model(rnn_type)
    model.train()
    rng = np.random.default_rng(31)
    src, src_mask = _toy_batch(rng)
    loss = None
    _, state = model.encode(src, src_mask)
    hidden = model.decode(src, state, src_mask)
    loss = sequence_loss(model, hidden, src, src_mask, None, LossSpec(kind="L1"))
    loss.backward()
    for p in model.parameters():
        assert p.grad is not None
        assert np.isfinite(p.grad).all()
