"""Vanilla RNN embedding baseline (vRNN in the paper's tables).

Same encoder architecture as t2vec, but trained as a next-cell language
model ("its parameters are set the same as our encoder-RNN except that it
is trained by predicting the next cell based on the cells it has already
seen", Section V-B) — no encoder-decoder, no spatial loss, no
pretraining.  A trajectory's representation is the final hidden state;
similarity is Euclidean distance between representations.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..data.dataset import pad_batch, tokenize
from ..data.trajectory import Trajectory
from ..nn import (GRU, Adam, Embedding, Linear, Tensor, clip_grad_norm,
                  nll_loss)
from ..nn.module import Module
from ..spatial.vocab import CellVocabulary
from .base import TrajectoryDistance


class _NextCellModel(Module):
    """GRU language model over cell tokens."""

    def __init__(self, vocab_size: int, embedding_size: int, hidden_size: int,
                 num_layers: int, rng: np.random.Generator):
        super().__init__()
        self.embedding = Embedding(vocab_size, embedding_size, rng=rng)
        self.rnn = GRU(embedding_size, hidden_size, num_layers=num_layers, rng=rng)
        self.proj = Linear(hidden_size, vocab_size, rng=rng)

    def forward(self, tokens: np.ndarray, mask: np.ndarray):
        """Run the GRU over a time-major ``(T, B)`` token batch.

        Returns ``(out_seq, state)``: the ``(T, B, hidden)`` top-layer
        states and the final state per layer.
        """
        return self.rnn(self.embedding(tokens), mask=mask)


class VanillaRNNEmbedding(TrajectoryDistance):
    """vRNN: next-cell GRU language model used as a trajectory encoder."""

    name = "vRNN"

    def __init__(self, vocab: CellVocabulary, embedding_size: int = 64,
                 hidden_size: int = 64, num_layers: int = 1, seed: int = 0):
        self.vocab = vocab
        self._rng = np.random.default_rng(seed)
        self.model = _NextCellModel(vocab.size, embedding_size, hidden_size,
                                    num_layers, self._rng)
        self._encodings: Dict[bytes, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(self, trajectories: Sequence[Trajectory], epochs: int = 5,
            batch_size: int = 32, lr: float = 1e-3,
            clip_norm: float = 5.0) -> List[float]:
        """Train the language model; returns the per-epoch mean loss."""
        sequences = [tokenize(t, self.vocab) for t in trajectories]
        sequences = [s for s in sequences if len(s) >= 2]
        if not sequences:
            raise ValueError("no trajectory produced a token sequence of length >= 2")
        optimizer = Adam(self.model.parameters(), lr=lr)
        history: List[float] = []
        order = np.arange(len(sequences))
        for _ in range(epochs):
            self._rng.shuffle(order)
            losses = []
            for start in range(0, len(order), batch_size):
                chunk = order[start:start + batch_size]
                batch, mask = pad_batch([sequences[i] for i in chunk])
                loss = self._step(batch, mask, optimizer, clip_norm)
                losses.append(loss)
            history.append(float(np.mean(losses)))
        self._encodings.clear()
        return history

    def _step(self, batch: np.ndarray, mask: np.ndarray,
              optimizer: Adam, clip_norm: float) -> float:
        loss = self._loss(batch, mask)
        optimizer.zero_grad()
        loss.backward()
        clip_grad_norm(self.model.parameters(), clip_norm)
        optimizer.step()
        return loss.item()

    def _loss(self, batch: np.ndarray, mask: np.ndarray) -> Tensor:
        """Next-cell NLL of a padded ``(T, B)`` batch."""
        inputs, targets = batch[:-1], batch[1:]
        target_mask = mask[1:]
        out_seq, _ = self.model(inputs, mask[:-1])
        t_steps, size = inputs.shape
        logits = self.model.proj(out_seq.reshape(t_steps * size, -1))
        # The loss is the mean over steps (those with any target) of each
        # step's masked-mean NLL: weighting a step's targets by 1/count
        # makes it nll_loss's masked mean, whose total weight is the
        # number of such steps.
        per_step = target_mask.sum(axis=1, keepdims=True)
        weights = np.divide(target_mask, per_step, where=per_step > 0,
                            out=np.zeros(target_mask.shape))
        return nll_loss(logits, targets.reshape(-1), weights.reshape(-1))

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode(self, trajectory: Trajectory) -> np.ndarray:
        return self.encode_many([trajectory])[0]

    def encode_many(self, trajectories: Sequence[Trajectory]) -> np.ndarray:
        """Embed trajectories (batched); results are cached per object."""
        if len(trajectories) == 0:
            return np.empty((0, self.model.rnn.hidden_size),
                            dtype=self.model.proj.weight.data.dtype)
        missing = [t for t in trajectories
                   if t.cache_key() not in self._encodings]
        if missing:
            self.model.eval()
            sequences = [tokenize(t, self.vocab) for t in missing]
            batch, mask = pad_batch(sequences)
            _, state = self.model(batch, mask)
            vectors = state[-1].numpy()
            for traj, vec in zip(missing, vectors):
                self._encodings[traj.cache_key()] = vec
            self.model.train()
        return np.stack([self._encodings[t.cache_key()] for t in trajectories])

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Write model weights + hyper-parameters (vocabulary not included)."""
        from ..nn.serialization import save_checkpoint
        meta = {
            "embedding_size": self.model.embedding.dim,
            "hidden_size": self.model.rnn.hidden_size,
            "num_layers": self.model.rnn.num_layers,
        }
        save_checkpoint(path, self.model.state_dict(), meta)

    @classmethod
    def load(cls, path, vocab: CellVocabulary) -> "VanillaRNNEmbedding":
        """Restore a model written by :meth:`save` (pass the same vocabulary)."""
        from ..nn.serialization import load_checkpoint
        state, meta = load_checkpoint(path)
        if meta is None:
            raise ValueError(f"{path} has no vRNN metadata")
        instance = cls(vocab, embedding_size=meta["embedding_size"],
                       hidden_size=meta["hidden_size"],
                       num_layers=meta["num_layers"])
        instance.model.load_state_dict(state)
        return instance

    # ------------------------------------------------------------------
    # Distance interface
    # ------------------------------------------------------------------
    def distance(self, a: Trajectory, b: Trajectory) -> float:
        va, vb = self.encode_many([a, b])
        return float(np.sqrt(((va - vb) ** 2).sum()))

    def distance_to_many(self, query: Trajectory,
                         candidates: Sequence[Trajectory]) -> np.ndarray:
        vq = self.encode(query)
        vc = self.encode_many(candidates)
        return np.sqrt(((vc - vq[None, :]) ** 2).sum(axis=1))
