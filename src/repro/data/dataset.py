"""Tokenization and mini-batch assembly for the seq2seq model.

Trajectories become token sequences through the hot-cell vocabulary
(:class:`repro.spatial.CellVocabulary`); pairs are batched time-major with
PAD, and the decoder side is framed as ``BOS + y`` → ``y + EOS``
(paper Figure 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..nn.tensor import get_default_dtype
from ..spatial.vocab import BOS, EOS, PAD, CellVocabulary
from .trajectory import Trajectory


def tokenize(trajectory: Trajectory, vocab: CellVocabulary) -> np.ndarray:
    """Map a trajectory to hot-cell tokens, one per sample point.

    Consecutive samples inside one cell give repeated tokens; the paper
    keeps them.
    """
    return vocab.tokenize_points(trajectory.points)


def pad_batch(sequences: Sequence[np.ndarray],
              pad_value: int = PAD) -> Tuple[np.ndarray, np.ndarray]:
    """Pad 1-D int sequences into a time-major ``(T, B)`` batch.

    Returns ``(tokens, mask)`` where ``mask`` is 1.0 on real positions.
    The mask is allocated in the library's default tensor dtype so masked
    RNN steps do not silently upcast float32 activations to float64.
    """
    if not sequences:
        raise ValueError("cannot pad an empty batch")
    lengths = np.array([len(s) for s in sequences])
    max_len = int(lengths.max())
    batch = np.full((max_len, len(sequences)), pad_value, dtype=np.int64)
    mask = np.zeros((max_len, len(sequences)), dtype=get_default_dtype())
    for j, seq in enumerate(sequences):
        batch[: len(seq), j] = seq
        mask[: len(seq), j] = 1.0
    return batch, mask


@dataclass(frozen=True)
class Batch:
    """One training mini-batch (all arrays time-major)."""

    src: np.ndarray        # (T_src, B) encoder tokens
    src_mask: np.ndarray   # (T_src, B) 1.0 on real positions
    tgt_in: np.ndarray     # (T_tgt, B) decoder inputs, starts with BOS
    tgt_out: np.ndarray    # (T_tgt, B) decoder targets, ends with EOS
    tgt_mask: np.ndarray   # (T_tgt, B)

    @property
    def size(self) -> int:
        return self.src.shape[1]


def make_batch(sources: Sequence[np.ndarray],
               targets: Sequence[np.ndarray]) -> Batch:
    """Assemble one :class:`Batch` from aligned token sequences.

    Sources are padded as-is; targets are framed as ``BOS + y`` decoder
    inputs and ``y + EOS`` decoder outputs (paper Figure 2).  The one
    batch builder: :class:`TokenPairDataset` calls it, and
    :class:`~repro.data.pipeline.TrainingDataPipeline` batches each of
    its windows through :class:`TokenPairDataset`.
    """
    src, src_mask = pad_batch(list(sources))
    tgt_in, _ = pad_batch([np.concatenate([[BOS], t]) for t in targets])
    tgt_out, tgt_mask = pad_batch([np.concatenate([t, [EOS]]) for t in targets])
    return Batch(src=src, src_mask=src_mask,
                 tgt_in=tgt_in, tgt_out=tgt_out, tgt_mask=tgt_mask)


class BatchSource(Protocol):
    """Anything :class:`~repro.core.trainer.Trainer` can draw batches from.

    Implemented by :class:`repro.data.pipeline.TrainingDataPipeline`,
    which synthesizes the paper's training pairs and streams them, and by
    :class:`TokenPairDataset`, which holds token pairs in memory: a
    pipeline's :meth:`~repro.data.pipeline.TrainingDataPipeline.materialize`
    result (validation sets) or any other aligned sequences (time series).
    """

    def __len__(self) -> int: ...

    def batches(self, batch_size: int,
                rng: Optional[np.random.Generator] = None,
                shuffle: bool = True) -> Iterator[Batch]: ...


class TokenPairDataset:
    """Generic tokenized (source, target) pairs with length-bucketed batching.

    Domain-agnostic: anything that produces aligned token sequences (grid
    cells, time-series value bins, ...) can train the encoder-decoder
    through this class.
    """

    def __init__(self, sources: Sequence[np.ndarray],
                 targets: Sequence[np.ndarray]):
        if len(sources) != len(targets):
            raise ValueError(
                f"{len(sources)} sources but {len(targets)} targets")
        self.sources: List[np.ndarray] = [np.asarray(s, dtype=np.int64)
                                          for s in sources]
        self.targets: List[np.ndarray] = [np.asarray(t, dtype=np.int64)
                                          for t in targets]

    def __len__(self) -> int:
        return len(self.sources)

    def batches(self, batch_size: int, rng: Optional[np.random.Generator] = None,
                shuffle: bool = True) -> Iterator[Batch]:
        """Yield padded mini-batches.

        Pairs are sorted by source length and chunked so batches have
        similar lengths (less padding waste); chunk order is shuffled each
        pass so the model does not see a length curriculum.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        order = np.argsort([len(s) for s in self.sources], kind="stable")
        chunks = [order[i:i + batch_size] for i in range(0, len(order), batch_size)]
        if shuffle:
            rng = rng or np.random.default_rng()
            rng.shuffle(chunks)
        for chunk in chunks:
            yield self._make_batch(chunk)

    def _make_batch(self, indices: np.ndarray) -> Batch:
        return make_batch([self.sources[i] for i in indices],
                          [self.targets[i] for i in indices])

