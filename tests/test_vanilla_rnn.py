"""vRNN baseline: next-cell language model as a trajectory encoder."""

import numpy as np
import pytest

from repro.baselines import VanillaRNNEmbedding


@pytest.fixture(scope="module")
def vrnn(vocab, trips):
    model = VanillaRNNEmbedding(vocab, embedding_size=16, hidden_size=16,
                                num_layers=1, seed=0)
    model.history = model.fit(trips[:30], epochs=2, batch_size=16)
    return model


def test_fit_reduces_loss(vrnn):
    assert vrnn.history[-1] < vrnn.history[0]


def test_encode_shape(vrnn, trips):
    vec = vrnn.encode(trips[0])
    assert vec.shape == (16,)


def test_encode_many_matches_encode(vrnn, trips):
    batch = vrnn.encode_many(trips[:4])
    singles = np.stack([vrnn.encode(t) for t in trips[:4]])
    np.testing.assert_allclose(batch, singles, atol=1e-6)


def test_distance_interface(vrnn, trips):
    d = vrnn.distance(trips[0], trips[1])
    assert d >= 0
    many = vrnn.distance_to_many(trips[0], trips[:3])
    assert many[0] == pytest.approx(0.0, abs=1e-6)
    assert many[1] == pytest.approx(d, rel=1e-5)


def test_cache_content_keyed(vrnn, trips):
    clone = trips[0].with_points(trips[0].points.copy())
    np.testing.assert_array_equal(vrnn.encode(trips[0]), vrnn.encode(clone))


def test_fit_rejects_degenerate_input(vocab):
    model = VanillaRNNEmbedding(vocab)
    with pytest.raises(ValueError):
        model.fit([])


@pytest.mark.usefixtures("float64_tensors")
def test_loss_matches_stepwise_oracle(vocab):
    """The whole-batch loss equals the per-step loop it replaced."""
    from repro.data.dataset import pad_batch
    from repro.nn import nll_loss

    from .rnn_reference import stepwise_forward

    model = VanillaRNNEmbedding(vocab, embedding_size=8, hidden_size=8,
                                num_layers=2, seed=0)
    net = model.model
    rng = np.random.default_rng(4)
    batch, mask = pad_batch([rng.integers(4, vocab.size, size=n)
                             for n in (7, 4, 2, 5)])

    def oracle_loss():
        inputs, targets, target_mask = batch[:-1], batch[1:], mask[1:]
        steps = [net.embedding(inputs[t]) for t in range(inputs.shape[0])]
        outputs, _ = stepwise_forward(net.rnn, steps, mask=mask[:-1])
        total, count = None, 0
        for t, hidden in enumerate(outputs):
            if target_mask[t].sum() == 0:
                continue
            step_loss = nll_loss(net.proj(hidden), targets[t], target_mask[t])
            total = step_loss if total is None else total + step_loss
            count += 1
        return total / count

    results = []
    for build in (lambda: model._loss(batch, mask), oracle_loss):
        net.zero_grad()
        loss = build()
        loss.backward()
        results.append((loss.item(), [p.grad.copy() for p in net.parameters()]))
    (got, grads), (want, ref_grads) = results
    assert abs(got - want) <= 1e-10
    for g, r in zip(grads, ref_grads):
        np.testing.assert_allclose(g, r, atol=1e-10)
