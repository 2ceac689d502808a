"""Property-based tests for the degradation transforms and pair stream.

Hypothesis drives `downsample` / `distort` / `degrade` over random
trajectories, rates, and seeds, checking the invariants the paper's pair
synthesis relies on (Section IV-B): endpoints survive downsampling, zero
rates are identities, lengths never grow, and equal seeds reproduce the
exact draw sequence — including across pipeline worker counts.
"""

from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.data import Trajectory, degrade, distort, downsample  # noqa: E402
from repro.data import pipeline as pipeline_mod  # noqa: E402
from repro.data.pipeline import TrainingDataPipeline  # noqa: E402

rates = st.floats(min_value=0.0, max_value=0.95, allow_nan=False).map(float)
seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


@st.composite
def trajectories(draw, min_points=2, max_points=40):
    n = draw(st.integers(min_value=min_points, max_value=max_points))
    rng = np.random.default_rng(draw(seeds))
    points = rng.uniform(-5000.0, 5000.0, size=(n, 2))
    return Trajectory(points=points)


@given(trajectories(), rates, seeds)
def test_downsample_preserves_endpoints_and_never_grows(t, rate, seed):
    out = downsample(t, rate, np.random.default_rng(seed))
    assert 2 <= len(out) <= len(t)
    np.testing.assert_array_equal(out.start, t.start)
    np.testing.assert_array_equal(out.end, t.end)


@given(trajectories(), seeds)
def test_zero_rates_are_identities(t, seed):
    rng = np.random.default_rng(seed)
    assert downsample(t, 0.0, rng) is t
    assert distort(t, 0.0, rng) is t
    degraded = degrade(t, 0.0, 0.0, rng)
    np.testing.assert_array_equal(degraded.points, t.points)


@given(trajectories(), rates, seeds)
def test_distort_keeps_length_and_bounds_displacement(t, rate, seed):
    out = distort(t, rate, np.random.default_rng(seed))
    assert len(out) == len(t)
    moved = np.linalg.norm(out.points - t.points, axis=1)
    # N(0, 30 m) noise per axis: anything beyond 8 sigma is a bug.
    assert float(moved.max(initial=0.0)) < 8 * 30.0 * np.sqrt(2)


@given(trajectories(min_points=3), rates, rates, seeds)
def test_degrade_same_seed_is_deterministic(t, r1, r2, seed):
    first = degrade(t, r1, r2, np.random.default_rng(seed))
    second = degrade(t, r1, r2, np.random.default_rng(seed))
    np.testing.assert_array_equal(first.points, second.points)
    assert 2 <= len(first) <= len(t)


@settings(max_examples=5, deadline=None)
@given(seeds, st.integers(min_value=1, max_value=3))
def test_pair_stream_deterministic_across_num_workers(pytestconfig, seed,
                                                      workers):
    """The pipeline's acceptance invariant, fuzzed over seeds and worker
    counts: sharding never changes the synthesized token stream."""
    trips = pytestconfig._pipeline_trips
    vocab = pytestconfig._pipeline_vocab
    serial = list(TrainingDataPipeline(trips, vocab, seed=seed,
                                       num_workers=0).token_pairs())
    with mock.patch.object(pipeline_mod, "CHUNK_SIZE", 2):
        sharded = list(TrainingDataPipeline(trips, vocab, seed=seed,
                                            num_workers=workers).token_pairs())
    assert len(sharded) == len(serial) == 16 * len(trips)
    for (src_a, tgt_a), (src_b, tgt_b) in zip(serial, sharded):
        np.testing.assert_array_equal(src_a, src_b)
        np.testing.assert_array_equal(tgt_a, tgt_b)


@pytest.fixture(autouse=True)
def _stash_pipeline_fixtures(request, pytestconfig):
    """Expose the session trips/vocab to @given tests (hypothesis cannot
    mix function-scoped pytest fixtures into generated examples)."""
    if not hasattr(pytestconfig, "_pipeline_trips"):
        pytestconfig._pipeline_trips = request.getfixturevalue("trips")[:6]
        pytestconfig._pipeline_vocab = request.getfixturevalue("vocab")
    yield
