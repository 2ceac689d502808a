"""Streaming data pipeline: worker parity, bucketing, telemetry.

The contract under test (docs/performance.md "Data pipeline"):

* the token-pair stream is bit-identical for ``num_workers`` ∈ {0, 1, 4}
  (per-original ``SeedSequence``-spawned RNGs, order-restoring collector);
* the windowed batch stream equals, batch for batch, the earlier
  window-buffer loop kept in ``tests/pipeline_reference.py``;
* the worker's degrade (the transforms' array kernels) is draw-for-draw
  identical to the public ``degrade`` transform;
* the rate grid is checked like ``degrade`` checks its rates;
* bucketing pads less than shuffle-only batching, and the padding
  counters/queue metrics land in the registry.
"""

import numpy as np
import pytest

from repro.data import TrainingDataPipeline, degrade, make_batch, tokenize
from repro.data import pipeline as pipeline_mod
from repro.data.pipeline import pair_rng, synthesize_token_pairs
from repro.telemetry import MetricsRegistry

from . import pipeline_reference

RATES = (0.0, 0.2, 0.4, 0.6)


def make_pipeline(trips, vocab, **kwargs):
    kwargs.setdefault("seed", 11)
    return TrainingDataPipeline(trips, vocab, **kwargs)


@pytest.fixture
def small_chunks(monkeypatch):
    """Four originals per work item, so a few trips make several chunks."""
    monkeypatch.setattr(pipeline_mod, "CHUNK_SIZE", 4)


def assert_batches_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g.src, w.src)
        np.testing.assert_array_equal(g.src_mask, w.src_mask)
        np.testing.assert_array_equal(g.tgt_in, w.tgt_in)
        np.testing.assert_array_equal(g.tgt_out, w.tgt_out)
        np.testing.assert_array_equal(g.tgt_mask, w.tgt_mask)


# ----------------------------------------------------------------------
# Determinism / parity
# ----------------------------------------------------------------------
def test_token_stream_bit_identical_across_num_workers(trips, vocab,
                                                      small_chunks):
    """The acceptance-criteria parity: num_workers ∈ {0, 1, 4}."""
    streams = []
    for workers in (0, 1, 4):
        pipeline = make_pipeline(trips[:20], vocab, num_workers=workers)
        streams.append(list(pipeline.token_pairs()))
    reference = streams[0]
    assert len(reference) == 20 * 16
    for stream in streams[1:]:
        assert len(stream) == len(reference)
        for (src_a, tgt_a), (src_b, tgt_b) in zip(reference, stream):
            np.testing.assert_array_equal(src_a, src_b)
            np.testing.assert_array_equal(tgt_a, tgt_b)


def test_batch_stream_identical_across_num_workers(trips, vocab,
                                                   small_chunks):
    def batch_stream(workers):
        pipeline = make_pipeline(trips[:20], vocab, num_workers=workers,
                                 bucket_batches=3)
        return list(pipeline.batches(8, np.random.default_rng(5)))

    reference = batch_stream(0)
    assert len(reference) == 40  # 320 pairs / batch 8
    assert_batches_equal(batch_stream(1), reference)
    assert_batches_equal(batch_stream(4), reference)


@pytest.mark.parametrize("num_workers", [0, 2])
@pytest.mark.parametrize("bucket_batches", [1, 3, 8])
@pytest.mark.parametrize("shuffle", [True, False])
def test_batches_match_window_buffer_reference(trips, vocab, small_chunks,
                                               shuffle, bucket_batches,
                                               num_workers):
    """Batch for batch, the earlier window-buffer loop.

    13 trips give 208 pairs; at batch 12 no window size divides that, so
    every case ends on a partial window (and a partial batch).
    """
    pipeline = make_pipeline(trips[:13], vocab, num_workers=num_workers,
                             bucket_batches=bucket_batches)
    assert len(pipeline) % (12 * bucket_batches) != 0
    got = list(pipeline.batches(12, np.random.default_rng(123),
                                shuffle=shuffle))
    want = list(pipeline_reference.batches(
        pipeline, 12, np.random.default_rng(123), shuffle=shuffle))
    assert_batches_equal(got, want)


def test_shuffled_epoch_draws_one_value_on_first_next(trips, vocab):
    """Shuffling draws exactly one int64 from the caller's rng, when
    iteration starts (the trainer shares that rng with the loss)."""
    rng, twin = np.random.default_rng(9), np.random.default_rng(9)
    iterator = make_pipeline(trips[:3], vocab).batches(8, rng)
    assert rng.bit_generator.state == twin.bit_generator.state
    list(iterator)
    twin.integers(np.iinfo(np.int64).max)
    assert rng.bit_generator.state == twin.bit_generator.state


def test_worker_degrade_matches_public_transform(trips, vocab):
    """The pipeline's degrade is draw-for-draw `degrade`."""
    for index, original in enumerate(trips[:4]):
        pairs = synthesize_token_pairs(original, vocab, RATES, RATES,
                                       pair_rng(7, index))
        oracle_rng = pair_rng(7, index)
        position = 0
        for r1 in RATES:
            for r2 in RATES:
                expected = tokenize(degrade(original, r1, r2, oracle_rng),
                                    vocab)
                np.testing.assert_array_equal(pairs[position][0], expected)
                np.testing.assert_array_equal(pairs[position][1],
                                              tokenize(original, vocab))
                position += 1


def test_same_seed_same_stream_different_seed_differs(trips, vocab):
    first = list(make_pipeline(trips[:6], vocab, seed=1).token_pairs())
    second = list(make_pipeline(trips[:6], vocab, seed=1).token_pairs())
    other = list(make_pipeline(trips[:6], vocab, seed=2).token_pairs())
    for (a, _), (b, _) in zip(first, second):
        np.testing.assert_array_equal(a, b)
    assert any(len(a) != len(c) or (a != c).any()
               for (a, _), (c, _) in zip(first, other))


def test_spawn_start_method_parity(trips, vocab, small_chunks):
    """The macOS/Windows start method produces the identical stream."""
    reference = list(make_pipeline(trips[:8], vocab).token_pairs())
    spawned = list(make_pipeline(trips[:8], vocab, num_workers=2,
                                 start_method="spawn").token_pairs())
    assert len(spawned) == len(reference)
    for (a, ta), (b, tb) in zip(reference, spawned):
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(ta, tb)


# ----------------------------------------------------------------------
# Bucketing
# ----------------------------------------------------------------------
def pad_overhead(batches):
    real = sum(float(b.src_mask.sum() + b.tgt_mask.sum()) for b in batches)
    total = sum(float(b.src_mask.size + b.tgt_mask.size) for b in batches)
    return (total - real) / real


def shuffled_batches(pairs, batch_size, window, rng):
    """Shuffle-only batching: per window, shuffled order → chunks."""
    batches = []
    for start in range(0, len(pairs), window):
        order = start + rng.permutation(min(window, len(pairs) - start))
        for i in range(0, len(order), batch_size):
            chunk = order[i:i + batch_size]
            batches.append(make_batch([pairs[j][0] for j in chunk],
                                      [pairs[j][1] for j in chunk]))
    return batches


def test_bucketing_reduces_padding_overhead(trips, vocab):
    pipeline = make_pipeline(trips, vocab, bucket_batches=8)
    rng = np.random.default_rng(0)
    bucketed_overhead = pad_overhead(list(pipeline.batches(16, rng)))
    shuffled_overhead = pad_overhead(
        shuffled_batches(list(pipeline.token_pairs()), 16, 16 * 8, rng))
    assert bucketed_overhead < shuffled_overhead


def test_batches_cover_every_pair_exactly_once(trips, vocab):
    pipeline = make_pipeline(trips[:10], vocab, bucket_batches=2)
    batches = list(pipeline.batches(8, np.random.default_rng(3)))
    assert sum(batch.size for batch in batches) == len(pipeline) == 160
    # Every source sequence of the stream appears in some batch column.
    stream_lengths = sorted(len(src) for src, _ in pipeline.token_pairs())
    batch_lengths = sorted(
        int(batch.src_mask[:, j].sum())
        for batch in batches for j in range(batch.size))
    assert batch_lengths == stream_lengths


# ----------------------------------------------------------------------
# Streaming machinery
# ----------------------------------------------------------------------
def test_early_break_with_workers_cleans_up(trips, vocab, small_chunks):
    """Abandoning iteration mid-epoch (Trainer.evaluate's max_batches
    break) must terminate worker processes, not leak or deadlock."""
    pipeline = make_pipeline(trips, vocab, num_workers=2)
    for _ in range(3):
        iterator = pipeline.batches(8, np.random.default_rng(0))
        next(iterator)
        iterator.close()
    # A full pass afterwards still works and is complete.
    batches = list(pipeline.batches(16, np.random.default_rng(0)))
    assert sum(batch.size for batch in batches) == len(pipeline)


def test_worker_failure_surfaces_as_error(trips, vocab):
    pipeline = make_pipeline(trips[:4], vocab, num_workers=1)
    pipeline.vocab = None  # workers will crash tokenizing
    with pytest.raises(RuntimeError, match="worker"):
        list(pipeline.token_pairs())


def test_invalid_configuration_rejected(trips, vocab):
    for kwargs in ({"num_workers": -1}, {"bucket_batches": 0},
                   {"bucket_batches": None}):
        with pytest.raises(ValueError):
            make_pipeline(trips[:4], vocab, **kwargs)
    with pytest.raises(ValueError):
        next(make_pipeline(trips[:4], vocab).batches(0))


@pytest.mark.parametrize("rates", [
    {"dropping_rates": (0.0, 1.0)},
    {"distorting_rates": (0.0, 1.5)},
    {"distorting_rates": (-0.5, 0.0)},
])
def test_out_of_range_rates_rejected(trips, vocab, rates):
    """The pipeline refuses the rates `degrade` refuses, up front."""
    with pytest.raises(ValueError, match="rate"):
        make_pipeline(trips[:4], vocab, num_workers=0, **rates)


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
def test_telemetry_metrics_recorded(trips, vocab, small_chunks):
    registry = MetricsRegistry()
    pipeline = make_pipeline(trips[:16], vocab, num_workers=2,
                             registry=registry)
    batches = list(pipeline.batches(16, np.random.default_rng(0)))
    assert registry.counter("data.pairs").value == len(pipeline)
    assert registry.counter("data.batches").value == len(batches)
    assert registry.counter("data.tokens.real").value > 0
    assert registry.histogram("data.worker.produce_s").count > 0
    assert registry.histogram("data.worker.wait_s").count > 0
    real = registry.counter("data.tokens.real").value
    pad = registry.counter("data.tokens.pad").value
    want_real = sum(float(b.src_mask.sum() + b.tgt_mask.sum())
                    for b in batches)
    want_total = sum(float(b.src_mask.size + b.tgt_mask.size)
                     for b in batches)
    assert real == pytest.approx(want_real)
    assert real + pad == pytest.approx(want_total)


# ----------------------------------------------------------------------
# Trainer integration
# ----------------------------------------------------------------------
def test_trainer_fits_from_pipeline(trips, vocab, small_chunks):
    from repro.core import (EncoderDecoder, LossSpec, ModelConfig, Trainer,
                            TrainingConfig)
    pipeline = make_pipeline(trips[:8], vocab, num_workers=2)
    validation = make_pipeline(trips[8:12], vocab, seed=99).materialize()
    model = EncoderDecoder(ModelConfig(vocab.size, 16, 16, num_layers=1,
                                       dropout=0.0, seed=0))
    trainer = Trainer(model, vocab, LossSpec(kind="L1"),
                      TrainingConfig(batch_size=16, max_epochs=2,
                                     patience=10))
    result = trainer.fit(pipeline, validation=validation)
    assert result.epochs_run == 2
    assert result.steps == 2 * len(list(pipeline.batches(16)))
    assert np.isfinite(result.train_losses).all()
