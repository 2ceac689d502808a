"""Tokenization and mini-batch assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import TrainingDataPipeline, pad_batch, tokenize
from repro.data.dataset import Batch
from repro.spatial import BOS, EOS, PAD


def test_tokenize_length_matches_points(trips, vocab):
    tokens = tokenize(trips[0], vocab)
    assert len(tokens) == len(trips[0])
    assert tokens.min() >= 4


def test_pad_batch_shapes_and_mask():
    seqs = [np.array([5, 6, 7]), np.array([8])]
    batch, mask = pad_batch(seqs)
    assert batch.shape == (3, 2)
    np.testing.assert_array_equal(batch[:, 0], [5, 6, 7])
    np.testing.assert_array_equal(batch[:, 1], [8, PAD, PAD])
    np.testing.assert_array_equal(mask, [[1, 1], [1, 0], [1, 0]])


def test_pad_batch_mask_follows_default_dtype():
    from repro.nn import get_default_dtype, set_default_dtype
    previous = get_default_dtype()
    try:
        for dtype in (np.float32, np.float64):
            set_default_dtype(dtype)
            _, mask = pad_batch([np.array([5, 6]), np.array([7])])
            assert mask.dtype == dtype
    finally:
        set_default_dtype(previous)


def test_pad_batch_empty_raises():
    with pytest.raises(ValueError):
        pad_batch([])


def test_pair_dataset_batches_cover_everything(trips, vocab, rng):
    dataset = TrainingDataPipeline(trips[:4], vocab, dropping_rates=(0.0, 0.4),
                                   distorting_rates=(0.0,)).materialize()
    assert len(dataset) == 8
    batches = list(dataset.batches(3, rng))
    assert sum(b.size for b in batches) == 8


def test_batch_decoder_framing(trips, vocab, rng):
    dataset = TrainingDataPipeline(trips[:2], vocab, dropping_rates=(0.0,),
                                   distorting_rates=(0.0,)).materialize()
    batch = next(dataset.batches(2, rng, shuffle=False))
    assert isinstance(batch, Batch)
    # Decoder input starts with BOS; decoder target ends with EOS.
    assert (batch.tgt_in[0] == BOS).all()
    for col in range(batch.size):
        length = int(batch.tgt_mask[:, col].sum())
        assert batch.tgt_out[length - 1, col] == EOS
        # tgt_in is tgt_out shifted right by one position.
        np.testing.assert_array_equal(batch.tgt_in[1:length, col],
                                      batch.tgt_out[:length - 1, col])


def test_batches_group_similar_lengths(trips, vocab, rng):
    dataset = TrainingDataPipeline(trips[:8], vocab, dropping_rates=(0.0, 0.6),
                                   distorting_rates=(0.0,)).materialize()
    for batch in dataset.batches(4, rng):
        lengths = batch.src_mask.sum(axis=0)
        assert lengths.max() - lengths.min() <= lengths.max()  # sane

    # Sorted batching wastes less padding than the worst case.
    total_cells = sum(b.src.size for b in dataset.batches(4, rng))
    total_tokens = sum(len(s) for s in dataset.sources)
    assert total_cells < 2.0 * total_tokens


def test_invalid_batch_size(trips, vocab, rng):
    dataset = TrainingDataPipeline(trips[:1], vocab).materialize()
    with pytest.raises(ValueError):
        next(dataset.batches(0, rng))


@settings(max_examples=20, deadline=None)
@given(lengths=st.lists(st.integers(1, 12), min_size=1, max_size=6))
def test_pad_batch_round_trip_property(lengths):
    rng = np.random.default_rng(0)
    seqs = [rng.integers(4, 50, size=n) for n in lengths]
    batch, mask = pad_batch(seqs)
    assert batch.shape == (max(lengths), len(lengths))
    for j, seq in enumerate(seqs):
        recovered = batch[mask[:, j] > 0, j]
        np.testing.assert_array_equal(recovered, seq)
