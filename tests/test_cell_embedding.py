"""Cell pretraining (Algorithm 1): spatial structure in the embeddings."""

import numpy as np
import pytest

from repro.core import CellEmbeddingConfig, CellEmbeddingTrainer
from repro.core.cell_embedding import _sigmoid
from repro.nn import get_default_dtype, set_default_dtype
from repro.spatial import NUM_SPECIALS


@pytest.fixture(scope="module")
def trained(vocab):
    trainer = CellEmbeddingTrainer(vocab, CellEmbeddingConfig(
        dim=16, context_size=6, k_nearest=8, epochs=4, seed=0))
    before = trainer.loss()
    table = trainer.train()
    return trainer, table, before


def test_output_shape(vocab, trained):
    _, table, _ = trained
    assert table.shape == (vocab.size, 16)


def test_training_reduces_objective(trained):
    trainer, _, before = trained
    after = trainer.loss()
    assert after < before


def test_sample_contexts_alignment(vocab):
    trainer = CellEmbeddingTrainer(vocab, CellEmbeddingConfig(
        dim=8, context_size=4, k_nearest=6, seed=1))
    centers, contexts = trainer.sample_contexts()
    assert len(centers) == len(contexts) == vocab.num_hot_cells * 4
    assert centers.min() >= NUM_SPECIALS
    assert contexts.min() >= NUM_SPECIALS
    assert contexts.max() < vocab.size


def test_contexts_are_spatially_close(vocab):
    """Eq. 8: sampled contexts come from the K nearest cells."""
    trainer = CellEmbeddingTrainer(vocab, CellEmbeddingConfig(
        dim=8, context_size=8, k_nearest=6, theta=100.0, seed=2))
    centers, contexts = trainer.sample_contexts()
    dists = vocab.token_distance(centers, contexts)
    knn_tokens, knn_dists = vocab.knn_table(6)
    assert dists.max() <= knn_dists.max() + 1e-9


def test_close_cells_get_closer_embeddings_than_far_cells(vocab, trained):
    """The point of CL: embedding distance correlates with spatial distance."""
    _, table, _ = trained
    hot = np.arange(vocab.num_hot_cells) + NUM_SPECIALS
    rng = np.random.default_rng(3)
    sample = rng.choice(hot, size=min(40, len(hot)), replace=False)

    knn_tokens, _ = vocab.knn_table(5)
    near_sims, far_sims = [], []
    for token in sample:
        neighbours = knn_tokens[token - NUM_SPECIALS, 1:]
        far = hot[rng.integers(0, len(hot), size=4)]
        vec = table[token]
        near_sims.append(np.mean([_cos(vec, table[n]) for n in neighbours]))
        far_sims.append(np.mean([_cos(vec, table[f]) for f in far]))
    assert np.mean(near_sims) > np.mean(far_sims) + 0.05


def _cos(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b) + 1e-12))


def test_deterministic_given_seed(vocab):
    a = CellEmbeddingTrainer(vocab, CellEmbeddingConfig(dim=8, epochs=1, seed=9))
    b = CellEmbeddingTrainer(vocab, CellEmbeddingConfig(dim=8, epochs=1, seed=9))
    np.testing.assert_array_equal(a.train(), b.train())


# ----------------------------------------------------------------------
# Parity with the per-pair scatter step
# ----------------------------------------------------------------------
def oracle_step(trainer, centers, positives, negatives):
    """Reference SGD step: per-pair gradients and ``np.add.at`` scatters.

    Every gradient is taken at the pre-step tables; duplicate rows
    accumulate.
    """
    lr = trainer.config.lr
    vc = trainer.center[centers]                      # (B, d)
    vp = trainer.context[positives]                   # (B, d)
    vn = trainer.context[negatives]                   # (B, neg, d)

    pos_score = _sigmoid((vc * vp).sum(axis=1))       # (B,)
    pos_coef = (1.0 - pos_score)[:, None]
    grad_c = pos_coef * vp
    grad_p = pos_coef * vc

    neg_score = _sigmoid((vn * vc[:, None, :]).sum(axis=2))   # (B, neg)
    grad_c -= (neg_score[:, :, None] * vn).sum(axis=1)
    grad_n = -neg_score[:, :, None] * vc[:, None, :]

    np.add.at(trainer.center, centers, lr * grad_c)
    np.add.at(trainer.context, positives, lr * grad_p)
    np.add.at(trainer.context, negatives.reshape(-1),
              lr * grad_n.reshape(-1, trainer.config.dim))


PARITY_CONFIG = CellEmbeddingConfig(dim=12, context_size=6, k_nearest=8,
                                    negatives=5, epochs=2, lr=0.5, seed=4)


def _oracle_run(vocab, batches=None):
    """Train with ``oracle_step`` on float64 tables; optionally record batches."""
    previous = get_default_dtype()
    set_default_dtype(np.float64)
    try:
        trainer = CellEmbeddingTrainer(vocab, PARITY_CONFIG)
    finally:
        set_default_dtype(previous)

    def step(centers, positives, negatives):
        if batches is not None:
            batches.append((centers, positives, negatives))
        oracle_step(trainer, centers, positives, negatives)

    trainer._step = step
    trainer.train(batch_size=256)
    return trainer


def _relative_gap(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


def test_parity_batches_exercise_duplicates(vocab):
    """The parity vocabulary is small enough to hit every accumulation case."""
    batches = []
    _oracle_run(vocab, batches)
    repeated_centers = sum(len(np.unique(c)) < len(c) for c, _, _ in batches)
    collisions = sum(int((n == p[:, None]).any(axis=1).sum())
                     for _, p, n in batches)
    assert repeated_centers == len(batches)
    assert collisions > 0


def test_step_matches_scatter_oracle_float64(vocab, float64_tensors):
    oracle = _oracle_run(vocab)
    trainer = CellEmbeddingTrainer(vocab, PARITY_CONFIG)
    assert trainer.train(batch_size=256).dtype == np.float64
    assert _relative_gap(trainer.center, oracle.center) <= 1e-12
    assert _relative_gap(trainer.context, oracle.context) <= 1e-12


def test_step_matches_scatter_oracle_float32(vocab):
    assert get_default_dtype() == np.float32
    oracle = _oracle_run(vocab)
    trainer = CellEmbeddingTrainer(vocab, PARITY_CONFIG)
    assert trainer.train(batch_size=256).dtype == np.float32
    assert _relative_gap(trainer.center, oracle.center) <= 1e-5
    assert _relative_gap(trainer.context, oracle.context) <= 1e-5
