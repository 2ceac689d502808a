"""Parallel streaming training-data pipeline (degrade → tokenize → batch).

The paper's pair synthesis (Section IV-B: the r1 × r2 grid of
downsampled/distorted variants, 16 per original) was the last serial,
eagerly-materialized stage of the training stack.  This module streams
it instead:

* **Sharded synthesis.**  Originals are split into chunks and sharded
  round-robin across worker processes.  Each original is degraded and
  tokenized with its *own* RNG, derived as
  ``SeedSequence(seed, spawn_key=(epoch, original_index))`` — the stream
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
* **Length-bucketed batching.**  Token pairs accumulate into a window
  of ``bucket_batches`` batches, are stable-sorted by source length,
  chunked, and the chunk order is shuffled — long sequences pad against
  long ones, so the RNN layer kernels burn far fewer FLOPs on PAD
  positions than shuffle-only batching would, without a global length
  curriculum.
* **Double-buffered prefetch.**  A background thread (:class:`Prefetcher`)
  keeps ``prefetch_batches`` assembled batches ready so the optimizer
  never waits on padding work.

Telemetry (recorded into the registry passed at construction, or the
process default): ``data.queue.depth`` gauge, ``data.worker.wait_s`` /
``data.worker.produce_s`` histograms, and ``data.tokens.real`` /
``data.tokens.pad`` / ``data.pairs`` / ``data.batches`` counters.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import threading
import time
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..spatial.vocab import CellVocabulary
from ..telemetry import MetricsRegistry, get_registry
from .dataset import Batch, TokenPairDataset, make_batch
from .trajectory import Trajectory
from .transforms import (DEFAULT_DISTORTING_RATES, DEFAULT_DROPPING_RATES,
                         check_distorting_rate, check_dropping_rate,
                         distort_points, drop_mask)

#: One tokenized training pair: (degraded source tokens, target tokens).
TokenPair = Tuple[np.ndarray, np.ndarray]

#: Bound on the inter-process result queue, in work items.
QUEUE_SIZE = 8


# ----------------------------------------------------------------------
# Deterministic synthesis (shared by workers and the in-process mode)
# ----------------------------------------------------------------------
def pair_rng(seed: int, original_index: int, epoch: int = 0) -> np.random.Generator:
    """The RNG that degrades original ``original_index`` in ``epoch``.

    Spawned from the pipeline seed by ``(epoch, original_index)`` alone,
    so any worker (or the in-process mode) reproduces the exact same
    variant stream for that original.
    """
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(epoch, original_index)))


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
                      seed: int, epoch: int) -> List[TokenPair]:
    """All token pairs for one contiguous chunk of originals."""
    pairs: List[TokenPair] = []
    for offset, original in enumerate(originals):
        rng = pair_rng(seed, start_index + offset, epoch)
        pairs.extend(synthesize_token_pairs(
            original, vocab, dropping_rates, distorting_rates, rng))
    return pairs


def _worker_main(work_items, vocab, dropping_rates, distorting_rates,
                 seed, epoch, out_queue) -> None:
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
                                      seed, epoch)
            out_queue.put(("chunk", chunk_index, pairs,
                           time.perf_counter() - started))
        out_queue.put(("done", None, None, None))
    except BaseException as exc:  # surface worker failures in the consumer
        out_queue.put(("error", None, f"{type(exc).__name__}: {exc}", None))


# ----------------------------------------------------------------------
# Background prefetch
# ----------------------------------------------------------------------
_SENTINEL = object()


class Prefetcher:
    """Double-buffered background iteration over ``source``.

    A daemon thread drains ``source`` into a bounded queue of ``depth``
    items so the consumer always finds the next item (batch) assembled.
    Exceptions raised by the source re-raise in the consumer; ``close``
    stops the thread early and closes the source generator (which tears
    down any worker processes it owns).
    """

    def __init__(self, source: Iterator, depth: int = 2):
        if depth < 1:
            raise ValueError(f"prefetch depth must be >= 1, got {depth}")
        self._source = source
        self._queue: "queue_mod.Queue" = queue_mod.Queue(maxsize=depth)
        self._stop = threading.Event()
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._fill, daemon=True,
                                        name="repro-data-prefetch")
        self._thread.start()

    def _fill(self) -> None:
        try:
            for item in self._source:
                if not self._put(item):
                    return
        except BaseException as exc:
            self._error = exc
        finally:
            close = getattr(self._source, "close", None)
            if close is not None:
                close()
            self._put(_SENTINEL)

    def _put(self, item) -> bool:
        """Put with stop-polling; False when closed before the put."""
        while not self._stop.is_set():
            try:
                self._queue.put(item, timeout=0.05)
                return True
            except queue_mod.Full:
                continue
        return False

    def __iter__(self) -> "Prefetcher":
        return self

    def __next__(self):
        if self._stop.is_set():
            raise StopIteration
        item = self._queue.get()
        if item is _SENTINEL:
            if self._error is not None:
                error, self._error = self._error, None
                raise error
            raise StopIteration
        return item

    def close(self) -> None:
        """Stop the fill thread and release the source."""
        self._stop.set()
        try:
            while True:
                self._queue.get_nowait()
        except queue_mod.Empty:
            pass
        self._thread.join(timeout=10)


# ----------------------------------------------------------------------
# The pipeline
# ----------------------------------------------------------------------
class TrainingDataPipeline:
    """Streams length-bucketed training batches from original trajectories.

    The one implementation of the paper's pair synthesis: every original
    in ``originals`` yields one (degraded source, original target) token
    pair per ``(r1, r2)`` in ``dropping_rates`` × ``distorting_rates``.
    Implements the :class:`~repro.data.dataset.BatchSource` protocol, so
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
    chunk_size:
        Originals per work item (amortizes queue/pickle overhead).
    bucket_batches:
        Length-sorting window, in batches.  ``None`` buffers the whole
        epoch, which makes the batch stream exactly reproduce
        ``TokenPairDataset.batches`` over the same token pairs.
    prefetch_batches:
        Assembled batches kept ready by the background prefetch thread
        (``0`` disables prefetching).
    fresh_each_epoch:
        Re-degrade originals with new draws on every ``batches()`` call
        (epoch-indexed seeds).  Leave ``False`` for validation pipelines
        and for parity with :meth:`materialize`.
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
                 chunk_size: int = 16,
                 bucket_batches: Optional[int] = 8,
                 prefetch_batches: int = 2,
                 fresh_each_epoch: bool = False,
                 start_method: Optional[str] = None,
                 registry: Optional[MetricsRegistry] = None):
        if num_workers < 0:
            raise ValueError(f"num_workers must be >= 0, got {num_workers}")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if bucket_batches is not None and bucket_batches < 1:
            raise ValueError(
                f"bucket_batches must be >= 1 or None, got {bucket_batches}")
        if prefetch_batches < 0:
            raise ValueError(
                f"prefetch_batches must be >= 0, got {prefetch_batches}")
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
        self.chunk_size = chunk_size
        self.bucket_batches = bucket_batches
        self.prefetch_batches = prefetch_batches
        self.fresh_each_epoch = fresh_each_epoch
        self.start_method = start_method
        self.registry = registry
        self._epoch = 0

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
                range(0, len(self.originals), self.chunk_size)):
            yield chunk_index, start, self.originals[start:start + self.chunk_size]

    def token_pairs(self, epoch: int = 0) -> Iterator[TokenPair]:
        """The deterministic (source, target) token stream, in original
        order — identical for every ``num_workers`` value."""
        if self.num_workers == 0:
            return self._serial_pairs(epoch)
        return self._parallel_pairs(epoch)

    def _serial_pairs(self, epoch: int) -> Iterator[TokenPair]:
        reg = self._registry()
        for _, start, chunk in self._chunks():
            started = time.perf_counter()
            pairs = _synthesize_chunk(chunk, start, self.vocab,
                                      self.dropping_rates,
                                      self.distorting_rates,
                                      self.seed, epoch)
            reg.histogram("data.worker.produce_s").observe(
                time.perf_counter() - started)
            reg.counter("data.pairs").inc(len(pairs))
            for pair in pairs:
                yield pair

    def _parallel_pairs(self, epoch: int) -> Iterator[TokenPair]:
        reg = self._registry()
        ctx = mp.get_context(self.start_method)
        out_queue = ctx.Queue(maxsize=QUEUE_SIZE)
        items = list(self._chunks())
        shards = [items[w::self.num_workers] for w in range(self.num_workers)]
        processes = [
            ctx.Process(target=_worker_main,
                        args=(shard, self.vocab, self.dropping_rates,
                              self.distorting_rates, self.seed, epoch,
                              out_queue),
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

    def materialize(self, epoch: int = 0) -> TokenPairDataset:
        """Drain the stream into a materialized reference dataset.

        The result's ``batches(batch_size, default_rng(s))`` is the
        exact-parity oracle for this pipeline's whole-epoch-window batch
        stream (see tests/test_pipeline.py); it is also how validation
        sets are pinned — synthesized once, evaluated many times.
        """
        pairs = list(self.token_pairs(epoch))
        return TokenPairDataset([source for source, _ in pairs],
                                [target for _, target in pairs])

    # ------------------------------------------------------------------
    # Batch assembly
    # ------------------------------------------------------------------
    def batches(self, batch_size: int,
                rng: Optional[np.random.Generator] = None,
                shuffle: bool = True) -> Iterator[Batch]:
        """Yield padded, length-bucketed mini-batches for one epoch.

        Exactly one value is drawn from ``rng`` (synchronously, before
        the prefetch thread starts) to seed the window shuffles, so a
        trainer sharing its generator with the loss's noise sampling
        stays deterministic even with background prefetch.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        shuffle_seed: Optional[int] = None
        if shuffle:
            rng = rng or np.random.default_rng()
            shuffle_seed = int(rng.integers(np.iinfo(np.int64).max))
        epoch = self._epoch
        if self.fresh_each_epoch:
            self._epoch += 1
        assembled = self._assemble(batch_size, shuffle_seed, epoch)
        if self.prefetch_batches < 1:
            yield from assembled
            return
        prefetcher = Prefetcher(assembled, depth=self.prefetch_batches)
        try:
            yield from prefetcher
        finally:
            prefetcher.close()

    def _assemble(self, batch_size: int, shuffle_seed: Optional[int],
                  epoch: int) -> Iterator[Batch]:
        shuffle_rng = (np.random.default_rng(shuffle_seed)
                       if shuffle_seed is not None else None)
        window = (None if self.bucket_batches is None
                  else batch_size * self.bucket_batches)
        buffer: List[TokenPair] = []
        for pair in self.token_pairs(epoch):
            buffer.append(pair)
            if window is not None and len(buffer) >= window:
                yield from self._flush(buffer, batch_size, shuffle_rng)
                buffer = []
        if buffer:
            yield from self._flush(buffer, batch_size, shuffle_rng)

    def _flush(self, pairs: List[TokenPair], batch_size: int,
               shuffle_rng: Optional[np.random.Generator]) -> Iterator[Batch]:
        """Batch one length-bucketed window: stable length sort →
        consecutive chunks → shuffled chunk order (the same scheme as
        ``TokenPairDataset.batches``, per window)."""
        reg = self._registry()
        order = np.argsort([len(source) for source, _ in pairs],
                           kind="stable")
        chunks = [order[i:i + batch_size]
                  for i in range(0, len(order), batch_size)]
        if shuffle_rng is not None:
            shuffle_rng.shuffle(chunks)
        for chunk in chunks:
            batch = make_batch([pairs[i][0] for i in chunk],
                               [pairs[i][1] for i in chunk])
            real = float(batch.src_mask.sum() + batch.tgt_mask.sum())
            total = float(batch.src_mask.size + batch.tgt_mask.size)
            reg.counter("data.tokens.real").inc(real)
            reg.counter("data.tokens.pad").inc(total - real)
            reg.counter("data.batches").inc()
            yield batch
