"""sequence_loss wiring: L1/L2/L3 over real decoder states."""

import numpy as np
import pytest

from repro.core import EncoderDecoder, LossSpec, ModelConfig, sequence_loss
from repro.core import losses as core_losses
from repro.data import TrainingDataPipeline
from repro.nn import Tensor
from repro.spatial import EOS, ProximityVocabulary

from . import loss_reference


@pytest.fixture(scope="module")
def setup(vocab, trips):
    rng = np.random.default_rng(0)
    dataset = TrainingDataPipeline(trips[:3], vocab, dropping_rates=(0.0, 0.4),
                                   distorting_rates=(0.0,)).materialize()
    batch = next(dataset.batches(6, rng, shuffle=False))
    model = EncoderDecoder(ModelConfig(vocab.size, 16, 16, num_layers=1,
                                       dropout=0.0, seed=0))
    _, state = model.encode(batch.src, batch.src_mask)
    hidden = model.decode(batch.tgt_in, state, batch.tgt_mask)
    return model, batch, hidden


@pytest.mark.parametrize("kind", ["L1", "L2", "L3"])
def test_all_loss_kinds_finite_and_positive(setup, vocab, kind):
    model, batch, hidden = setup
    spec = LossSpec(kind=kind, k_nearest=6, theta=100.0, noise=16)
    loss = sequence_loss(model, hidden, batch.tgt_out, batch.tgt_mask,
                         vocab, spec, np.random.default_rng(0))
    value = loss.item()
    assert np.isfinite(value)
    assert value > 0


def test_l2_approaches_l1_for_tiny_theta(setup, vocab):
    """Paper: theta -> 0 reduces the proximity loss to NLL."""
    model, batch, hidden = setup
    l1 = sequence_loss(model, hidden, batch.tgt_out, batch.tgt_mask, vocab,
                       LossSpec(kind="L1")).item()
    l2 = sequence_loss(model, hidden, batch.tgt_out, batch.tgt_mask, vocab,
                       LossSpec(kind="L2", theta=1e-3)).item()
    assert l2 == pytest.approx(l1, rel=1e-4)


def test_l3_close_to_l2_with_many_candidates(setup, vocab):
    """With K covering the vocabulary and large noise, L3 estimates L2."""
    model, batch, hidden = setup
    l2 = sequence_loss(model, hidden, batch.tgt_out, batch.tgt_mask, vocab,
                       LossSpec(kind="L2", theta=100.0)).item()
    spec = LossSpec(kind="L3", k_nearest=vocab.num_hot_cells,
                    theta=100.0, noise=max(1, vocab.size))
    l3 = sequence_loss(model, hidden, batch.tgt_out, batch.tgt_mask, vocab,
                       spec, np.random.default_rng(0)).item()
    assert l3 == pytest.approx(l2, rel=0.05)


def test_loss_ignores_padding(setup, vocab):
    """Appending padded rows must not change the loss."""
    model, batch, hidden = setup
    spec = LossSpec(kind="L1")
    base = sequence_loss(model, hidden, batch.tgt_out, batch.tgt_mask,
                         vocab, spec).item()
    # Duplicate hidden rows but mark the duplicates as padding.
    from repro.nn import concat
    doubled = concat([hidden, hidden], axis=0)
    targets = np.concatenate([batch.tgt_out.reshape(-1),
                              batch.tgt_out.reshape(-1)])
    mask = np.concatenate([batch.tgt_mask.reshape(-1),
                           np.zeros(batch.tgt_mask.size)])
    padded = sequence_loss(model, doubled, targets, mask, vocab, spec).item()
    assert padded == pytest.approx(base, rel=1e-6)


def test_gradients_flow_to_all_parameters(setup, vocab):
    model, batch, hidden = setup
    model.zero_grad()
    spec = LossSpec(kind="L3", k_nearest=6, noise=16)
    loss = sequence_loss(model, hidden, batch.tgt_out, batch.tgt_mask,
                         vocab, spec, np.random.default_rng(0))
    loss.backward()
    grads = {name: p.grad for name, p in model.named_parameters()}
    assert grads["proj_weight"] is not None
    assert grads["embedding.weight"] is not None
    assert grads["encoder.cells.0.w_hh"] is not None
    assert np.abs(grads["encoder.cells.0.w_hh"]).sum() > 0


def test_empty_mask_raises(setup, vocab):
    model, batch, hidden = setup
    with pytest.raises(ValueError):
        sequence_loss(model, hidden, batch.tgt_out,
                      np.zeros_like(batch.tgt_mask), vocab, LossSpec(kind="L1"))


def test_invalid_loss_kind_rejected():
    with pytest.raises(ValueError):
        LossSpec(kind="L4")
    with pytest.raises(ValueError):
        LossSpec(k_nearest=0)
    with pytest.raises(ValueError):
        LossSpec(noise=0)


def test_dense_l3_path_never_reaches_gathered_node(setup, vocab, monkeypatch):
    """At V <= DENSE_L3_VOCAB_LIMIT, L3 stays on the dense masked softmax."""
    model, batch, hidden = setup
    assert vocab.size <= core_losses.DENSE_L3_VOCAB_LIMIT

    def gathered(*args, **kwargs):
        raise AssertionError("gathered L3 reached at a dense-path vocabulary")

    monkeypatch.setattr(core_losses, "sampled_weighted_loss", gathered)
    model.zero_grad()
    loss = sequence_loss(model, hidden, batch.tgt_out, batch.tgt_mask, vocab,
                         LossSpec(kind="L3", k_nearest=6, noise=16),
                         np.random.default_rng(0))
    loss.backward()
    assert np.isfinite(loss.item())


def test_gathered_l3_path_matches_tape_oracle(float64_tensors):
    """Above the limit, sequence_loss equals the tape L3 on the same draws."""
    rng = np.random.default_rng(4)
    vocab = ProximityVocabulary(
        rng.uniform(0.0, 5000.0, size=(core_losses.DENSE_L3_VOCAB_LIMIT + 1, 2)))
    model = EncoderDecoder(ModelConfig(vocab.size, 8, 8, num_layers=1,
                                       dropout=0.0, seed=0))
    model.proj_bias.data[:] = rng.standard_normal(vocab.size)
    steps, batch, spec = 5, 3, LossSpec(kind="L3", k_nearest=6, noise=16)
    targets = rng.integers(EOS, vocab.size, size=(steps, batch))
    targets[-1] = EOS
    mask = np.ones((steps, batch))
    mask[3:, 0] = 0.0
    states = rng.standard_normal((steps * batch, 8))

    def run(loss_fn):
        model.zero_grad()
        hidden = Tensor(states, requires_grad=True)
        loss = loss_fn(hidden)
        loss.backward()
        return (loss.item(), hidden.grad, model.proj_weight.grad.copy(),
                model.proj_bias.grad.copy())

    fused = run(lambda hidden: sequence_loss(
        model, hidden, targets, mask, vocab, spec, np.random.default_rng(1)))

    def oracle(hidden):
        # The gathered branch of sequence_loss, draw for draw.
        draws = np.random.default_rng(1)
        real = np.flatnonzero(mask.reshape(-1))
        flat_targets = targets.reshape(-1)[real]
        cand, knn_w = vocab.proximity_candidates(flat_targets, spec.k_nearest,
                                                 spec.theta)
        noise = vocab.sample_noise(draws, len(real), spec.noise, exclude=cand)
        return loss_reference.sampled_weighted_loss(
            hidden[real], model.proj_weight,
            np.concatenate([cand, noise], axis=1),
            np.concatenate([knn_w, np.zeros(noise.shape)], axis=1),
            proj_bias=model.proj_bias)

    expected = run(oracle)
    assert fused[0] == pytest.approx(expected[0], rel=1e-10, abs=1e-10)
    for got, want in zip(fused[1:], expected[1:]):
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)
