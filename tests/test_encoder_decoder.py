"""Seq2seq encoder-decoder model mechanics."""

import numpy as np
import pytest

from repro.core import EncoderDecoder, ModelConfig
from repro.data import TrainingDataPipeline
from repro.spatial import BOS, EOS


@pytest.fixture(scope="module")
def model(vocab):
    return EncoderDecoder(ModelConfig(vocab_size=vocab.size,
                                      embedding_size=16, hidden_size=16,
                                      num_layers=2, dropout=0.0, seed=0))


@pytest.fixture(scope="module")
def batch(vocab, trips):
    rng = np.random.default_rng(0)
    dataset = TrainingDataPipeline(trips[:4], vocab, dropping_rates=(0.0, 0.4),
                                   distorting_rates=(0.0,)).materialize()
    return next(dataset.batches(8, rng, shuffle=False))


def test_encode_shapes(model, batch):
    v, state = model.encode(batch.src, batch.src_mask)
    assert v.shape == (batch.size, 16)
    assert len(state) == 2
    assert state[0].shape == (batch.size, 16)


def test_representation_uses_top_layer_final_state(model, batch):
    v, state = model.encode(batch.src, batch.src_mask)
    np.testing.assert_array_equal(v.numpy(), state[-1].numpy())


def test_representations_distinguish_inputs(model, batch):
    v = model.represent(batch.src, batch.src_mask)
    pairwise = np.sqrt(((v[:, None] - v[None, :]) ** 2).sum(axis=2))
    # Different trajectories map to different vectors even untrained.
    off_diag = pairwise[~np.eye(len(v), dtype=bool)]
    assert off_diag.min() > 0


def test_represent_is_deterministic_and_restores_mode(model, batch):
    model.train()
    a = model.represent(batch.src, batch.src_mask)
    b = model.represent(batch.src, batch.src_mask)
    np.testing.assert_array_equal(a, b)
    assert model.training  # mode restored


def test_decode_output_shape(model, batch):
    _, state = model.encode(batch.src, batch.src_mask)
    hidden = model.decode(batch.tgt_in, state, batch.tgt_mask)
    t_steps = batch.tgt_in.shape[0]
    assert hidden.shape == (t_steps * batch.size, 16)


def test_logits_shape(model, batch, vocab):
    _, state = model.encode(batch.src, batch.src_mask)
    hidden = model.decode(batch.tgt_in, state, batch.tgt_mask)
    logits = model.logits(hidden)
    assert logits.shape == (hidden.shape[0], vocab.size)


def test_greedy_decode_terminates_and_excludes_specials(model, batch):
    decoded = model.greedy_decode(batch.src, batch.src_mask, max_len=20)
    assert len(decoded) == batch.size
    for tokens in decoded:
        assert len(tokens) <= 20
        assert not np.isin(tokens, [BOS, EOS]).any()


def test_encoder_mask_padding_invariance(model, vocab):
    """Extra padding must not change a sequence's representation."""
    seq = np.array([5, 6, 7, 8])
    short = seq.reshape(-1, 1)
    short_mask = np.ones((4, 1))
    padded = np.concatenate([seq, [0, 0, 0]]).reshape(-1, 1)
    padded_mask = np.concatenate([np.ones(4), np.zeros(3)]).reshape(-1, 1)
    a = model.represent(short, short_mask)
    b = model.represent(padded, padded_mask)
    np.testing.assert_allclose(a, b, atol=1e-6)


def test_parameter_count_scales_with_config(vocab):
    small = EncoderDecoder(ModelConfig(vocab.size, 8, 8, num_layers=1))
    big = EncoderDecoder(ModelConfig(vocab.size, 32, 32, num_layers=3))
    assert big.num_parameters() > small.num_parameters()


def test_beam_decode_terminates_and_excludes_specials(model, batch):
    decoded = model.beam_decode(batch.src, batch.src_mask, beam_width=3,
                                max_len=15)
    assert len(decoded) == batch.size
    for tokens in decoded:
        assert len(tokens) <= 15
        assert not np.isin(tokens, [BOS, EOS]).any()


def test_beam_width_one_matches_greedy(model, batch):
    """A width-1 beam is greedy search (same argmax path)."""
    greedy = model.greedy_decode(batch.src, batch.src_mask, max_len=12)
    beam = model.beam_decode(batch.src, batch.src_mask, beam_width=1,
                             max_len=12)
    for g, b in zip(greedy, beam):
        np.testing.assert_array_equal(g, b)


def test_beam_decode_rejects_bad_width(model, batch):
    import pytest as _pytest
    with _pytest.raises(ValueError):
        model.beam_decode(batch.src, batch.src_mask, beam_width=0)


def test_beam_decode_works_with_lstm(vocab):
    lstm_model = EncoderDecoder(ModelConfig(vocab.size, 12, 12, num_layers=1,
                                            dropout=0.0, rnn_type="lstm",
                                            seed=0))
    src = np.array([[5, 6], [7, 8]])
    mask = np.ones((2, 2))
    decoded = lstm_model.beam_decode(src, mask, beam_width=2, max_len=8)
    assert len(decoded) == 2


#: Checkpoint keys of a 2-layer model; saved models load only if these
#: stay put (the cells hold each layer's parameters).
_STATE_KEYS = (
    ["embedding.weight"]
    + [f"{stack}.cells.{layer}.{name}"
       for stack in ("encoder", "decoder") for layer in (0, 1)
       for name in ("w_ih", "w_hh", "b_ih", "b_hh")]
    + ["proj_weight", "proj_bias"])


@pytest.mark.parametrize("rnn_type,gates", [("gru", 3), ("lstm", 4)])
def test_state_dict_keys_pinned(rnn_type, gates):
    model = EncoderDecoder(ModelConfig(vocab_size=10, embedding_size=3,
                                       hidden_size=4, num_layers=2,
                                       rnn_type=rnn_type))
    state = model.state_dict()
    assert list(state) == _STATE_KEYS
    assert state["encoder.cells.0.w_ih"].shape == (3, gates * 4)
    assert state["decoder.cells.1.w_hh"].shape == (4, gates * 4)
