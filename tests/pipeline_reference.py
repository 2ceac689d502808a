"""Parity oracle for :meth:`repro.data.pipeline.TrainingDataPipeline.batches`.

:func:`batches` is the pipeline's earlier window-batching loop, kept as it
was: token pairs accumulate into a buffer of ``batch_size *
bucket_batches`` pairs, and each full buffer (plus the final partial one)
is flushed by its own copy of the length-bucketing scheme (stable sort
by source length → consecutive chunks → shuffled chunk order).  The
pipeline now batches each window through ``TokenPairDataset.batches``
instead; the two must give the same batch stream, batch for batch.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

import numpy as np

from repro.data.dataset import Batch, make_batch
from repro.data.pipeline import TokenPair, TrainingDataPipeline


def batches(pipeline: TrainingDataPipeline, batch_size: int,
            rng: Optional[np.random.Generator] = None,
            shuffle: bool = True) -> Iterator[Batch]:
    """The window-buffer batch stream for one epoch of ``pipeline``."""
    shuffle_seed: Optional[int] = None
    if shuffle:
        rng = rng or np.random.default_rng()
        shuffle_seed = int(rng.integers(np.iinfo(np.int64).max))
    return _assemble(pipeline, batch_size, shuffle_seed)


def _assemble(pipeline: TrainingDataPipeline, batch_size: int,
              shuffle_seed: Optional[int]) -> Iterator[Batch]:
    shuffle_rng = (np.random.default_rng(shuffle_seed)
                   if shuffle_seed is not None else None)
    window = batch_size * pipeline.bucket_batches
    buffer: List[TokenPair] = []
    for pair in pipeline.token_pairs():
        buffer.append(pair)
        if len(buffer) >= window:
            yield from _flush(buffer, batch_size, shuffle_rng)
            buffer = []
    if buffer:
        yield from _flush(buffer, batch_size, shuffle_rng)


def _flush(pairs: List[TokenPair], batch_size: int,
           shuffle_rng: Optional[np.random.Generator]) -> Iterator[Batch]:
    """Batch one length-bucketed window: stable length sort →
    consecutive chunks → shuffled chunk order (the same scheme as
    ``TokenPairDataset.batches``, per window)."""
    order = np.argsort([len(source) for source, _ in pairs],
                       kind="stable")
    chunks = [order[i:i + batch_size]
              for i in range(0, len(order), batch_size)]
    if shuffle_rng is not None:
        shuffle_rng.shuffle(chunks)
    for chunk in chunks:
        yield make_batch([pairs[i][0] for i in chunk],
                         [pairs[i][1] for i in chunk])
