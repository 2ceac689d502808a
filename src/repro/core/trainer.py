"""Training loop for the t2vec encoder-decoder.

Implements the paper's training regime (Section V-B): Adam with initial
learning rate 1e-3, gradient clipping at global norm 5, teacher forcing,
and early stopping on a validation set ("training is terminated if the
loss in the validation dataset does not decrease in 20,000 successive
iterations" — here expressed as a patience in validation rounds).

The loop is observable: :meth:`Trainer.fit` accepts a list of
:class:`~repro.telemetry.Callback` hooks and records per-epoch loss,
tokens/sec, and wall-clock into a :class:`~repro.telemetry.MetricsRegistry`
(the process default unless one is passed explicitly).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..data.dataset import Batch, BatchSource
from ..nn import Adam, clip_grad_norm
from ..spatial.proximity import ProximityVocabulary
from ..telemetry import (Callback, CallbackList, MetricsRegistry,
                         StopTraining, get_registry)
from .encoder_decoder import EncoderDecoder
from .losses import LossSpec, sequence_loss


#: ``TrainingConfig`` keys that earlier releases wrote and that no longer
#: configure anything (``prefetch_batches`` sized a background batch
#: thread that is gone).
_RETIRED_KEYS = frozenset({"prefetch_batches"})


@dataclass(frozen=True)
class TrainingConfig:
    """Optimization hyper-parameters (paper values in parentheses)."""

    batch_size: int = 32
    max_epochs: int = 10
    lr: float = 1e-3               # Adam initial learning rate (1e-3)
    clip_norm: float = 5.0         # max gradient norm (5)
    patience: int = 5              # validation rounds without improvement
    eval_batches: int = 20         # validation mini-batches per round
    num_workers: int = 0           # data-pipeline worker processes
    bucket_batches: int = 8        # length-sorting window, in batches
    seed: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict; inverse of :meth:`from_dict`."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TrainingConfig":
        """Build from :meth:`to_dict` output; unknown keys are rejected.

        Keys of retired fields (``prefetch_batches``) are dropped, so
        checkpoints written by earlier releases still load.
        """
        data = {k: v for k, v in data.items() if k not in _RETIRED_KEYS}
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown TrainingConfig keys: {sorted(unknown)}")
        return cls(**data)


@dataclass
class TrainingResult:
    """What happened during :meth:`Trainer.fit`."""

    train_losses: List[float] = field(default_factory=list)   # per epoch
    val_losses: List[float] = field(default_factory=list)     # per validation
    best_val_loss: float = float("inf")
    epochs_run: int = 0
    steps: int = 0
    tokens: int = 0                # real (unpadded) positions processed
    tokens_per_s: float = 0.0      # tokens / wall_time_s
    wall_time_s: float = 0.0
    stopped_early: bool = False


class Trainer:
    """Fits an :class:`EncoderDecoder` on any :class:`BatchSource`.

    The source may be a materialized
    :class:`~repro.data.dataset.TokenPairDataset` or a streaming
    :class:`~repro.data.pipeline.TrainingDataPipeline` (pair synthesis,
    in-process or sharded across workers, and length-bucketed batches,
    assembled when the loop asks for the next one); both yield the same
    :class:`~repro.data.dataset.Batch` layout.
    """

    def __init__(self, model: EncoderDecoder, vocab: ProximityVocabulary,
                 loss_spec: LossSpec = LossSpec(),
                 config: TrainingConfig = TrainingConfig(),
                 registry: Optional[MetricsRegistry] = None):
        self.model = model
        self.vocab = vocab
        self.loss_spec = loss_spec
        self.config = config
        self.registry = registry
        self._rng = np.random.default_rng(config.seed)
        self.optimizer = Adam(model.parameters(), lr=config.lr)
        self.steps_taken = 0       # optimizer steps, over every fit

    def _registry(self, override: Optional[MetricsRegistry] = None
                  ) -> MetricsRegistry:
        return override or self.registry or get_registry()

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def fit(self, train: BatchSource, *,
            validation: Optional[BatchSource] = None,
            callbacks: Sequence[Callback] = (),
            registry: Optional[MetricsRegistry] = None) -> TrainingResult:
        """Train until ``max_epochs``, early stopping, or a callback's
        :class:`~repro.telemetry.StopTraining`; restores best weights.

        ``validation`` and later arguments are keyword-only.
        """
        reg = self._registry(registry)
        hooks = CallbackList(list(callbacks))
        result = TrainingResult()
        best_state: Optional[Dict[str, np.ndarray]] = None
        bad_rounds = 0
        start = time.perf_counter()

        hooks.on_fit_start(self)
        try:
            with reg.span("fit", record_histogram=False):
                for epoch in range(self.config.max_epochs):
                    hooks.on_epoch_start(self, epoch)
                    epoch_losses: List[float] = []
                    epoch_tokens = 0
                    epoch_start = time.perf_counter()
                    with reg.span("fit.epoch"):
                        for batch in train.batches(self.config.batch_size,
                                                   self._rng):
                            loss = self.train_step(batch)
                            tokens = int(batch.src_mask.sum()
                                         + batch.tgt_mask.sum())
                            epoch_losses.append(loss)
                            epoch_tokens += tokens
                            # Counted before the hook, which may stop fit.
                            result.steps += 1
                            result.tokens += tokens
                            reg.counter("train.steps").inc()
                            reg.counter("train.tokens").inc(tokens)
                            hooks.on_batch_end(self, result.steps - 1, loss,
                                               tokens)
                    epoch_time = time.perf_counter() - epoch_start
                    train_loss = float(np.mean(epoch_losses))
                    result.train_losses.append(train_loss)
                    result.epochs_run = epoch + 1

                    val_loss: Optional[float] = None
                    if validation is not None and len(validation):
                        val_loss = self.evaluate(validation)
                        result.val_losses.append(val_loss)
                        reg.gauge("train.val_loss").set(val_loss)
                        if val_loss < result.best_val_loss - 1e-6:
                            result.best_val_loss = val_loss
                            best_state = self.model.state_dict()
                            bad_rounds = 0
                        else:
                            bad_rounds += 1

                    tokens_per_s = (epoch_tokens / epoch_time
                                    if epoch_time > 0 else 0.0)
                    reg.gauge("train.epoch_loss").set(train_loss)
                    reg.gauge("train.tokens_per_s").set(tokens_per_s)
                    reg.gauge("train.epoch_time_s").set(epoch_time)
                    hooks.on_epoch_end(self, epoch, {
                        "train_loss": train_loss,
                        "val_loss": val_loss,
                        "tokens_per_s": tokens_per_s,
                        "epoch_time_s": epoch_time,
                        "steps": result.steps,
                    })
                    if val_loss is not None and bad_rounds >= self.config.patience:
                        result.stopped_early = True
                        break
        except StopTraining:
            result.stopped_early = True

        if best_state is not None:
            self.model.load_state_dict(best_state)
        result.wall_time_s = time.perf_counter() - start
        result.tokens_per_s = (result.tokens / result.wall_time_s
                               if result.wall_time_s > 0 else 0.0)
        hooks.on_fit_end(self, result)
        return result

    # ------------------------------------------------------------------
    # Steps
    # ------------------------------------------------------------------
    def train_step(self, batch: Batch) -> float:
        """One optimizer step on one mini-batch; returns the loss value.

        Raises :class:`FloatingPointError` on a non-finite loss, before
        any gradient reaches the weights.
        """
        self.model.train()
        _, state = self.model.encode(batch.src, batch.src_mask)
        hidden = self.model.decode(batch.tgt_in, state, batch.tgt_mask)
        loss = sequence_loss(self.model, hidden, batch.tgt_out, batch.tgt_mask,
                             self.vocab, self.loss_spec, self._rng)
        value = loss.item()
        if not math.isfinite(value):
            raise FloatingPointError(
                f"non-finite training loss {value} at step {self.steps_taken} "
                f"(src {batch.src.shape}, tgt {batch.tgt_out.shape})")
        self.optimizer.zero_grad()
        loss.backward()
        clip_grad_norm(self.model.parameters(), self.config.clip_norm)
        self.optimizer.step()
        self.steps_taken += 1
        return value

    def evaluate(self, dataset: BatchSource,
                 max_batches: Optional[int] = None) -> float:
        """Mean validation loss (no parameter updates, dropout off)."""
        self.model.eval()
        max_batches = max_batches or self.config.eval_batches
        losses = []
        for i, batch in enumerate(dataset.batches(self.config.batch_size,
                                                  self._rng, shuffle=False)):
            if i >= max_batches:
                break
            _, state = self.model.encode(batch.src, batch.src_mask)
            hidden = self.model.decode(batch.tgt_in, state, batch.tgt_mask)
            loss = sequence_loss(self.model, hidden, batch.tgt_out,
                                 batch.tgt_mask, self.vocab, self.loss_spec,
                                 self._rng)
            losses.append(loss.item())
        self.model.train()
        return float(np.mean(losses)) if losses else float("inf")
