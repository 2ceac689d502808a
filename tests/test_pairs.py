"""Training pair synthesis: the 16-variant grid per original trajectory."""

import numpy as np

from repro.data import (DEFAULT_DISTORTING_RATES, DEFAULT_DROPPING_RATES,
                        TrainingDataPipeline, tokenize)
from repro.data.pipeline import synthesize_token_pairs

GRID = [(r1, r2) for r1 in DEFAULT_DROPPING_RATES
        for r2 in DEFAULT_DISTORTING_RATES]


def pairs_of(original, vocab, rng, dropping_rates=DEFAULT_DROPPING_RATES,
             distorting_rates=DEFAULT_DISTORTING_RATES):
    return synthesize_token_pairs(original, vocab, dropping_rates,
                                  distorting_rates, rng)


def test_sixteen_pairs_per_original(trips, vocab):
    originals = trips[:3]
    pipeline = TrainingDataPipeline(originals, vocab, seed=0)
    assert len(pipeline) == 16 * len(originals)
    assert len(list(pipeline.token_pairs())) == 16 * len(originals)


def test_rate_grid_covered(trips, vocab, rng):
    """One pair per (r1, r2), r1-major: every r1 = 0 source keeps the
    original's length, and the r1 = r2 = 0 source is the target."""
    original = trips[0]
    pairs = pairs_of(original, vocab, rng)
    assert len(pairs) == len(GRID)
    for (source, target), (r1, r2) in zip(pairs, GRID):
        if r1 == 0.0:
            assert len(source) == len(target)
        if r1 == 0.0 and r2 == 0.0:
            np.testing.assert_array_equal(source, target)


def test_target_is_the_original(trips, vocab, rng):
    original = trips[0]
    expected = tokenize(original, vocab)
    for _, target in pairs_of(original, vocab, rng):
        np.testing.assert_array_equal(target, expected)


def test_sources_are_degraded(trips, vocab, rng):
    original = trips[0]
    pairs = pairs_of(original, vocab, rng, dropping_rates=(0.6,),
                     distorting_rates=(0.0,))
    assert len(pairs[0][0]) < len(original)


def test_clean_pair_identity(trips, vocab):
    dataset = TrainingDataPipeline(trips[:1], vocab, dropping_rates=(0.0,),
                                   distorting_rates=(0.0,)).materialize()
    np.testing.assert_array_equal(dataset.sources[0],
                                  tokenize(trips[0], vocab))


def test_source_endpoints_preserved(trips, vocab):
    pipeline = TrainingDataPipeline(trips[:4], vocab, seed=0)
    for index, (source, target) in enumerate(pipeline.token_pairs()):
        _, r2 = GRID[index % len(GRID)]
        if r2 == 0.0:  # distortion may move endpoints
            assert source[0] == target[0]
            assert source[-1] == target[-1]
