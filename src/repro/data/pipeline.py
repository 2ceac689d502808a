"""Streaming training-data pipeline (degrade → tokenize → batch).

The paper's pair synthesis (Section IV-B: the r1 × r2 grid of
downsampled/distorted variants, 16 per original) was the last serial,
eagerly-materialized stage of the training stack.  This module streams
it instead:

* **Sharded synthesis.**  Originals are split into chunks and sharded
  round-robin across worker processes.  Each original is degraded and
  tokenized with its *own* RNG, derived as
  ``SeedSequence(seed, spawn_key=(0, original_index))`` — the stream
  is bit-identical for a given seed regardless of ``num_workers``
  (including the ``num_workers=0`` in-process mode), because the seed
  depends only on the original's position, never on which worker
  happened to process it.
* **Fused per-original work.**  The target is tokenized once per
  original, not once per pair, and all variants' points go through a
  single KD-tree query.  Variants come from the array kernels behind
  :func:`~repro.data.transforms.degrade`, draw for draw.
* **Bounded streaming.**  Workers push ``(chunk_index, pairs)`` results
  through a bounded queue; the consumer restores original order with a
  small reorder buffer (chunks are round-robin, so no worker can run
  unboundedly ahead of the in-order cursor while the queue exerts
  backpressure).
* **Length-bucketed batching.**  The stream is cut into windows of
  ``bucket_batches`` batches, and each window is batched by
  :meth:`TokenPairDataset.batches <repro.data.dataset.TokenPairDataset.batches>`
  (stable sort by source length, consecutive chunks, shuffled chunk
  order) — long sequences pad against long ones, so the RNN layer
  kernels burn far fewer FLOPs on PAD positions than shuffle-only
  batching would, without a global length curriculum.

Batches are assembled synchronously, in the consumer's thread, when the
trainer asks for the next one.

Telemetry (recorded into the registry passed at construction, or the
process default): ``data.queue.depth`` gauge, ``data.worker.wait_s`` /
``data.worker.produce_s`` histograms, and ``data.tokens.real`` /
``data.tokens.pad`` / ``data.pairs`` / ``data.batches`` counters.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import time
from itertools import islice
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..spatial.vocab import CellVocabulary
from ..telemetry import MetricsRegistry, get_registry
from .dataset import Batch, TokenPairDataset
from .trajectory import Trajectory
from .transforms import (DEFAULT_DISTORTING_RATES, DEFAULT_DROPPING_RATES,
                         check_distorting_rate, check_dropping_rate,
                         distort_points, drop_mask)

#: One tokenized training pair: (degraded source tokens, target tokens).
TokenPair = Tuple[np.ndarray, np.ndarray]

#: Bound on the inter-process result queue, in work items.
QUEUE_SIZE = 8

#: Originals per work item (amortizes queue/pickle overhead).
CHUNK_SIZE = 16


# ----------------------------------------------------------------------
# Deterministic synthesis (shared by workers and the in-process mode)
# ----------------------------------------------------------------------
def pair_rng(seed: int, original_index: int) -> np.random.Generator:
    """The RNG that degrades original ``original_index``.

    Spawned from the pipeline seed by the original's index alone, so any
    worker (or the in-process mode) reproduces the exact same variant
    stream for that original.  The key is ``(0, original_index)``: the
    leading ``0`` keeps every seed's pairs (and every model trained on
    them) identical to those of earlier releases.
    """
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(0, original_index)))


def synthesize_token_pairs(original: Trajectory, vocab: CellVocabulary,
                           dropping_rates: Sequence[float],
                           distorting_rates: Sequence[float],
                           rng: np.random.Generator) -> List[TokenPair]:
    """Degrade → tokenize the full r1 × r2 grid for one original.

    Pairs come r1-major, in grid order.  Each variant draws from ``rng``
    exactly as ``degrade(original, r1, r2, rng)`` would.  The target is
    tokenized once and shared (read-only) across the grid's pairs; all
    variants' points go through one KD-tree query.
    """
    points = original.points
    target = vocab.tokenize_points(points)
    variants: List[np.ndarray] = []
    for r1 in dropping_rates:
        for r2 in distorting_rates:
            keep = drop_mask(len(points), r1, rng)
            variants.append(distort_points(
                points if keep is None else points[keep], r2, rng))
    lengths = [len(v) for v in variants]
    tokens = vocab.tokenize_points(np.concatenate(variants, axis=0))
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    return [(tokens[offsets[i]:offsets[i + 1]].copy(), target)
            for i in range(len(variants))]


def _synthesize_chunk(originals: Sequence[Trajectory], start_index: int,
                      vocab: CellVocabulary,
                      dropping_rates: Sequence[float],
                      distorting_rates: Sequence[float],
                      seed: int) -> List[TokenPair]:
    """All token pairs for one contiguous chunk of originals."""
    pairs: List[TokenPair] = []
    for offset, original in enumerate(originals):
        rng = pair_rng(seed, start_index + offset)
        pairs.extend(synthesize_token_pairs(
            original, vocab, dropping_rates, distorting_rates, rng))
    return pairs


def _worker_main(work_items, vocab, dropping_rates, distorting_rates,
                 seed, out_queue) -> None:
    """Worker process: synthesize assigned chunks, stream them back.

    Each result is ``("chunk", chunk_index, pairs, produce_seconds)``;
    a final ``("done", ...)`` sentinel (or ``("error", ...)`` carrying
    the formatted exception) tells the consumer the shard is finished.
    Module-level so the ``spawn`` start method (macOS, Windows) can
    pickle it.
    """
    try:
        for chunk_index, start_index, originals in work_items:
            started = time.perf_counter()
            pairs = _synthesize_chunk(originals, start_index, vocab,
                                      dropping_rates, distorting_rates,
                                      seed)
            out_queue.put(("chunk", chunk_index, pairs,
                           time.perf_counter() - started))
        out_queue.put(("done", None, None, None))
    except BaseException as exc:  # surface worker failures in the consumer
        out_queue.put(("error", None, f"{type(exc).__name__}: {exc}", None))


# ----------------------------------------------------------------------
# The pipeline
# ----------------------------------------------------------------------
class TrainingDataPipeline:
    """Streams length-bucketed training batches from original trajectories.

    The one implementation of the paper's pair synthesis: every original
    in ``originals`` yields one (degraded source, original target) token
    pair per ``(r1, r2)`` in ``dropping_rates`` × ``distorting_rates``,
    with the same draws on every pass.  Implements the
    :class:`~repro.data.dataset.BatchSource` protocol, so
    :meth:`repro.core.trainer.Trainer.fit` consumes it exactly like a
    materialized :class:`~repro.data.dataset.TokenPairDataset`.

    Parameters
    ----------
    originals:
        The target trajectories Tb.
    vocab:
        Hot-cell vocabulary that tokenizes sources and targets.
    dropping_rates, distorting_rates:
        The r1 and r2 grids (default: the paper's four rates each).
        Checked like :func:`~repro.data.transforms.degrade` checks them:
        r1 in ``[0, 1)``, r2 in ``[0, 1]``.
    seed:
        Root of the per-original RNGs (:func:`pair_rng`).
    num_workers:
        ``0`` synthesizes in-process (the reference mode); ``n > 0``
        shards chunk synthesis across ``n`` processes.  The token-pair
        stream is bit-identical either way.
    bucket_batches:
        Length-sorting window, in batches.
    start_method:
        Multiprocessing start method (``"fork"``, ``"spawn"``,
        ``"forkserver"``); ``None`` uses the platform default.  The
        stream is bit-identical under every method.
    """

    def __init__(self, originals: Sequence[Trajectory],
                 vocab: CellVocabulary,
                 dropping_rates: Sequence[float] = DEFAULT_DROPPING_RATES,
                 distorting_rates: Sequence[float] = DEFAULT_DISTORTING_RATES,
                 seed: int = 0,
                 num_workers: int = 0,
                 bucket_batches: int = 8,
                 start_method: Optional[str] = None,
                 registry: Optional[MetricsRegistry] = None):
        if num_workers < 0:
            raise ValueError(f"num_workers must be >= 0, got {num_workers}")
        if bucket_batches is None or bucket_batches < 1:
            raise ValueError(
                f"bucket_batches must be >= 1, got {bucket_batches}")
        self.dropping_rates = tuple(dropping_rates)
        self.distorting_rates = tuple(distorting_rates)
        for rate in self.dropping_rates:
            check_dropping_rate(rate)
        for rate in self.distorting_rates:
            check_distorting_rate(rate)
        self.originals = list(originals)
        self.vocab = vocab
        self.seed = seed
        self.num_workers = num_workers
        self.bucket_batches = bucket_batches
        self.start_method = start_method
        self.registry = registry

    def _registry(self) -> MetricsRegistry:
        return self.registry or get_registry()

    def __len__(self) -> int:
        """Number of training pairs per epoch (|originals| · |r1| · |r2|)."""
        return (len(self.originals)
                * len(self.dropping_rates) * len(self.distorting_rates))

    # ------------------------------------------------------------------
    # Token-pair stream
    # ------------------------------------------------------------------
    def _chunks(self):
        for chunk_index, start in enumerate(
                range(0, len(self.originals), CHUNK_SIZE)):
            yield chunk_index, start, self.originals[start:start + CHUNK_SIZE]

    def token_pairs(self) -> Iterator[TokenPair]:
        """The deterministic (source, target) token stream, in original
        order — identical for every ``num_workers`` value."""
        if self.num_workers == 0:
            return self._serial_pairs()
        return self._parallel_pairs()

    def _serial_pairs(self) -> Iterator[TokenPair]:
        reg = self._registry()
        for _, start, chunk in self._chunks():
            started = time.perf_counter()
            pairs = _synthesize_chunk(chunk, start, self.vocab,
                                      self.dropping_rates,
                                      self.distorting_rates, self.seed)
            reg.histogram("data.worker.produce_s").observe(
                time.perf_counter() - started)
            reg.counter("data.pairs").inc(len(pairs))
            for pair in pairs:
                yield pair

    def _parallel_pairs(self) -> Iterator[TokenPair]:
        reg = self._registry()
        ctx = mp.get_context(self.start_method)
        out_queue = ctx.Queue(maxsize=QUEUE_SIZE)
        items = list(self._chunks())
        shards = [items[w::self.num_workers] for w in range(self.num_workers)]
        processes = [
            ctx.Process(target=_worker_main,
                        args=(shard, self.vocab, self.dropping_rates,
                              self.distorting_rates, self.seed, out_queue),
                        daemon=True)
            for shard in shards if shard
        ]
        for process in processes:
            process.start()
        try:
            pending = {}
            next_index = 0
            finished = 0
            while finished < len(processes):
                waited = time.perf_counter()
                while True:
                    try:
                        kind, chunk_index, payload, produce_s = out_queue.get(
                            timeout=1.0)
                        break
                    except queue_mod.Empty:
                        dead = [p for p in processes
                                if not p.is_alive() and p.exitcode not in (0, None)]
                        if dead:
                            raise RuntimeError(
                                "data pipeline worker died with exit code "
                                f"{dead[0].exitcode} before finishing its "
                                "shard") from None
                reg.histogram("data.worker.wait_s").observe(
                    time.perf_counter() - waited)
                try:
                    reg.gauge("data.queue.depth").set(out_queue.qsize())
                except NotImplementedError:  # macOS has no Queue.qsize
                    pass
                if kind == "done":
                    finished += 1
                    continue
                if kind == "error":
                    raise RuntimeError(
                        f"data pipeline worker failed: {payload}")
                reg.counter("data.pairs").inc(len(payload))
                reg.histogram("data.worker.produce_s").observe(produce_s)
                pending[chunk_index] = payload
                while next_index in pending:
                    for pair in pending.pop(next_index):
                        yield pair
                    next_index += 1
        finally:
            for process in processes:
                if process.is_alive():
                    process.terminate()
            for process in processes:
                process.join(timeout=10)
            out_queue.close()
            out_queue.cancel_join_thread()

    def materialize(self) -> TokenPairDataset:
        """Drain the stream into a materialized dataset.

        This is how validation sets are pinned: synthesized once,
        evaluated many times.
        """
        pairs = list(self.token_pairs())
        return TokenPairDataset([source for source, _ in pairs],
                                [target for _, target in pairs])

    # ------------------------------------------------------------------
    # Batch assembly
    # ------------------------------------------------------------------
    def batches(self, batch_size: int,
                rng: Optional[np.random.Generator] = None,
                shuffle: bool = True) -> Iterator[Batch]:
        """Yield padded, length-bucketed mini-batches for one epoch.

        Each window of ``batch_size * bucket_batches`` pairs is batched by
        :meth:`TokenPairDataset.batches`.  When shuffling, exactly one
        value is drawn from ``rng`` (on the first ``next()``) to seed the
        window shuffles, so a trainer sharing its generator with the
        loss's noise sampling draws the same noise whatever the window
        count.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        shuffle_rng: Optional[np.random.Generator] = None
        if shuffle:
            rng = rng or np.random.default_rng()
            shuffle_rng = np.random.default_rng(
                int(rng.integers(np.iinfo(np.int64).max)))
        reg = self._registry()
        window = batch_size * self.bucket_batches
        pairs = self.token_pairs()
        try:
            while True:
                chunk = list(islice(pairs, window))
                if not chunk:
                    return
                dataset = TokenPairDataset([source for source, _ in chunk],
                                           [target for _, target in chunk])
                for batch in dataset.batches(batch_size, shuffle_rng,
                                             shuffle=shuffle):
                    real = float(batch.src_mask.sum() + batch.tgt_mask.sum())
                    total = float(batch.src_mask.size + batch.tgt_mask.size)
                    reg.counter("data.tokens.real").inc(real)
                    reg.counter("data.tokens.pad").inc(total - real)
                    reg.counter("data.batches").inc()
                    yield batch
        finally:
            pairs.close()
