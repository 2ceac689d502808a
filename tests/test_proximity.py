"""ProximityVocabulary base class on arbitrary-dimension centroids."""

import numpy as np
import pytest

from repro.spatial import NUM_SPECIALS, ProximityVocabulary


@pytest.fixture
def line_vocab():
    """Five 1-D tokens at x = 0, 1, 2, 3, 10."""
    return ProximityVocabulary(np.array([[0.0], [1.0], [2.0], [3.0], [10.0]]))


def test_sizes(line_vocab):
    assert line_vocab.num_hot_cells == 5
    assert line_vocab.size == 9


def test_tokenize_nearest(line_vocab):
    tokens = line_vocab.tokenize_points(np.array([[0.4], [2.6], [100.0]]))
    np.testing.assert_array_equal(tokens, [4, 7, 8])


def test_knn_table_orders_by_distance(line_vocab):
    tokens, dists = line_vocab.knn_table(3)
    # Token at x=0: nearest neighbours are x=1 then x=2.
    np.testing.assert_array_equal(tokens[0], [4, 5, 6])
    np.testing.assert_allclose(dists[0], [0.0, 1.0, 2.0])
    # The isolated token at x=10 reaches back to x=3 then x=2.
    np.testing.assert_array_equal(tokens[4], [8, 7, 6])


def test_proximity_weights_decay(line_vocab):
    cand, weights = line_vocab.proximity_candidates(np.array([4]), k=3,
                                                    theta=1.0)
    # exp(0) : exp(-1) : exp(-2), normalized.
    expected = np.exp([0.0, -1.0, -2.0])
    expected /= expected.sum()
    np.testing.assert_allclose(weights[0], expected, rtol=1e-9)


def test_full_weights_match_manual_kernel(line_vocab, float64_tensors):
    # full_weights returns the library dtype; float64 keeps rtol=1e-9 exact.
    weights = line_vocab.full_weights(np.array([5]), theta=2.0)
    centers = np.array([0.0, 1.0, 2.0, 3.0, 10.0])
    kernel = np.exp(-np.abs(centers - 1.0) / 2.0)
    kernel /= kernel.sum()
    np.testing.assert_allclose(weights[0, NUM_SPECIALS:], kernel, rtol=1e-9)
    np.testing.assert_allclose(weights[0, :NUM_SPECIALS], 0.0)


def test_token_distance_euclidean(line_vocab):
    d = line_vocab.token_distance(np.array([4]), np.array([8]))
    assert d[0] == pytest.approx(10.0)


def test_sample_noise_bounds(line_vocab):
    rng = np.random.default_rng(0)
    noise = line_vocab.sample_noise(rng, batch=4, count=7)
    assert noise.shape == (4, 7)
    assert noise.min() >= NUM_SPECIALS and noise.max() < line_vocab.size


def test_invalid_centroids_rejected():
    with pytest.raises(ValueError):
        ProximityVocabulary(np.empty((0, 2)))
    with pytest.raises(ValueError):
        ProximityVocabulary(np.zeros(5))


def test_three_dimensional_centroids_supported():
    """The kernels are dimension-agnostic (e.g. lon/lat/time tokens)."""
    rng = np.random.default_rng(0)
    vocab = ProximityVocabulary(rng.standard_normal((20, 3)))
    cand, weights = vocab.proximity_candidates(
        np.arange(NUM_SPECIALS, NUM_SPECIALS + 5), k=4, theta=1.0)
    assert cand.shape == (5, 4)
    np.testing.assert_allclose(weights.sum(axis=1), 1.0)
