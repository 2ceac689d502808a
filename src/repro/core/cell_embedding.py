"""Cell representation pre-training (paper Algorithm 1, Section IV-C2).

Skip-gram with negative sampling over *spatially sampled* contexts: the
context of a hot cell is drawn from its K nearest cells with probability
proportional to ``exp(-distance / θ)`` (Eq. 8).  Cells that are close in
space therefore get close embeddings, which warm-starts the seq2seq
embedding layer — the paper reports it both improves mean rank and cuts
training time by a third (Table VII, column L3+CL).

The model is tiny (two embedding tables, a dot product, a sigmoid), so it
is trained with hand-rolled vectorized gradients rather than the autograd
engine.  Each SGD step works on *compact rows*: the batch's distinct
centre rows and distinct context rows are gathered once, scored with
batched ``matmul``, and each row's summed update is formed by one sparse
(rows x batch) product and written back once.  Gradients are taken at the
pre-step values and duplicate rows accumulate, exactly as a per-pair
``np.add.at`` scatter would (``tests/test_cell_embedding.py`` keeps that
scatter as the parity oracle).  The tables are held in the library dtype
(:func:`repro.nn.get_default_dtype`, float32 by default), which the model's
embedding layer uses anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy import sparse

from ..nn.tensor import get_default_dtype
from ..spatial.proximity import NUM_SPECIALS, ProximityVocabulary


@dataclass(frozen=True)
class CellEmbeddingConfig:
    """Hyper-parameters of Algorithm 1 (paper defaults in parentheses)."""

    dim: int = 64                  # representation dimension d (256)
    context_size: int = 10         # context window l (10)
    k_nearest: int = 10            # K nearest cells considered (20)
    theta: float = 100.0           # spatial scale θ in meters (100)
    negatives: int = 5             # negative samples per positive
    epochs: int = 3
    lr: float = 0.05
    seed: int = 0


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


class CellEmbeddingTrainer:
    """Learns spatially coherent cell vectors via skip-gram + negative sampling."""

    def __init__(self, vocab: ProximityVocabulary,
                 config: CellEmbeddingConfig = CellEmbeddingConfig()):
        self.vocab = vocab
        self.config = config
        self._rng = np.random.default_rng(config.seed)
        dtype = get_default_dtype()
        scale = 0.5 / config.dim
        self.center = self._rng.uniform(
            -scale, scale, (vocab.size, config.dim)).astype(dtype)
        self.context = np.zeros((vocab.size, config.dim), dtype=dtype)

    # ------------------------------------------------------------------
    # Context construction (Algorithm 1, lines 1-5)
    # ------------------------------------------------------------------
    def sample_contexts(self) -> Tuple[np.ndarray, np.ndarray]:
        """Draw ``context_size`` context cells for every hot cell.

        Returns ``(centers, contexts)``, flat aligned arrays of token ids.
        """
        cfg = self.config
        neighbours, probs = self.vocab.context_distribution(cfg.k_nearest, cfg.theta)
        num_hot, k = neighbours.shape
        # Vectorized categorical sampling per row via the CDF trick.
        cdf = np.cumsum(probs, axis=1)
        draws = self._rng.random((num_hot, cfg.context_size))
        picks = (draws[:, :, None] > cdf[:, None, :]).sum(axis=2)
        picks = np.minimum(picks, k - 1)  # guard against cdf rounding below 1.0
        contexts = neighbours[np.arange(num_hot)[:, None], picks]
        centers = np.repeat(np.arange(num_hot) + NUM_SPECIALS, cfg.context_size)
        return centers, contexts.reshape(-1)

    # ------------------------------------------------------------------
    # Training (Algorithm 1, line 6: optimize Eq. 9)
    # ------------------------------------------------------------------
    def train(self, batch_size: int = 512) -> np.ndarray:
        """Run the optimization; returns the learned ``(vocab, dim)`` table.

        One "epoch" redraws the contexts (fresh samples from Eq. 8) and
        sweeps all (center, context) pairs once with negative sampling.
        """
        cfg = self.config
        low, high = NUM_SPECIALS, self.vocab.size
        for _ in range(cfg.epochs):
            centers, contexts = self.sample_contexts()
            order = self._rng.permutation(len(centers))
            centers, contexts = centers[order], contexts[order]
            for start in range(0, len(centers), batch_size):
                c = centers[start:start + batch_size]
                pos = contexts[start:start + batch_size]
                neg = self._rng.integers(low, high, size=(len(c), cfg.negatives))
                self._step(c, pos, neg)
        return self.embeddings()

    def _step(self, centers: np.ndarray, positives: np.ndarray,
              negatives: np.ndarray) -> None:
        """One SGD step on a batch of (center, positive, negatives) triples.

        Maximizes ``log σ(vc·vp) + Σ log σ(-vc·vn)`` (Eq. 9) with every
        gradient taken at the pre-step tables.
        """
        lr = self.config.lr
        batch = len(centers)
        center_rows, center_of = np.unique(centers, return_inverse=True)
        targets = np.concatenate([positives[:, None], negatives], axis=1)
        context_rows, context_of = np.unique(targets, return_inverse=True)
        context_of = context_of.reshape(targets.shape)     # (B, 1 + neg)
        center = self.center[center_rows]                  # distinct rows
        context = self.context[context_rows]
        vc = center[center_of]                             # (B, d)
        vx = context[context_of]                           # (B, 1 + neg, d)

        # coef[:, 0] = 1 - σ(vc·vp); coef[:, 1:] = -σ(vc·vn): the gradient
        # of Eq. 9 with respect to each score.
        coef = -_sigmoid(np.matmul(vx, vc[:, :, None])[:, :, 0])
        coef[:, 0] += 1.0
        coef *= lr
        grad_c = np.matmul(coef[:, None, :], vx)[:, 0, :]   # (B, d)

        # Sum each row's updates: (rows x B) @ (B, d).  Column b holds
        # triple b's entries; repeated rows in a column add up.
        to_center = sparse.csc_matrix(
            (np.ones(batch, dtype=coef.dtype), center_of,
             np.arange(batch + 1)), shape=(len(center_rows), batch))
        to_context = sparse.csc_matrix(
            (coef.ravel(), context_of.ravel(),
             np.arange(0, coef.size + 1, coef.shape[1])),
            shape=(len(context_rows), batch))
        center += to_center @ grad_c
        context += to_context @ vc
        self.center[center_rows] = center
        self.context[context_rows] = context

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def embeddings(self) -> np.ndarray:
        """The center table — used to initialize the model's embedding layer."""
        return self.center.copy()

    def loss(self, sample_size: int = 2048) -> float:
        """Monte-Carlo estimate of the negative-sampling objective (lower=better)."""
        centers, contexts = self.sample_contexts()
        idx = self._rng.choice(len(centers), size=min(sample_size, len(centers)),
                               replace=False)
        c, p = centers[idx], contexts[idx]
        neg = self._rng.integers(NUM_SPECIALS, self.vocab.size,
                                 size=(len(c), self.config.negatives))
        vc, vp, vn = self.center[c], self.context[p], self.context[neg]
        pos = np.log(_sigmoid((vc * vp).sum(axis=1)) + 1e-12)
        negs = np.log(_sigmoid(-(vn * vc[:, None, :]).sum(axis=2)) + 1e-12).sum(axis=1)
        return float(-(pos + negs).mean())
