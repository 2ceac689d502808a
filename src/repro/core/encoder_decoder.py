"""The t2vec sequence encoder-decoder (paper Sections III-B and IV).

The encoder GRU reads the degraded trajectory ``Ta`` and its final hidden
state (top layer) is the trajectory representation ``v``; the decoder
GRU, initialized with the encoder's final state, reconstructs the
original trajectory ``Tb`` token by token (teacher forcing at training
time).  The output projection row ``W_u`` scores cell ``u`` given the
decoder state ``h_t`` — exactly the ``W_u^T h_t`` of the paper's Eq. 5/7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..nn import GRU, Embedding, Module, Parameter, Tensor, init
from ..nn.functional import log_softmax
from ..nn.lstm import LSTM
from ..spatial.vocab import BOS, EOS

RNN_TYPES = ("gru", "lstm")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyper-parameters (paper defaults in parentheses)."""

    vocab_size: int
    embedding_size: int = 64    # cell representation dimension d (256)
    hidden_size: int = 64       # RNN hidden size = |v| (256)
    num_layers: int = 2         # RNN layers (3)
    dropout: float = 0.1
    rnn_type: str = "gru"       # the paper's choice; "lstm" for the ablation
    seed: int = 0

    def __post_init__(self):
        if self.rnn_type not in RNN_TYPES:
            raise ValueError(f"rnn_type must be one of {RNN_TYPES}, "
                             f"got {self.rnn_type}")


class EncoderDecoder(Module):
    """Recurrent encoder-decoder with a shared cell embedding table.

    Encoding, teacher-forced decoding and greedy/beam generation all run
    through the stacks' ``forward``: one ``(T, B)`` embedding gather and
    one tape node per layer (see :func:`~repro.nn.rnn.gru_layer_forward`).
    A generation step is a call with ``T = 1``.
    """

    def __init__(self, config: ModelConfig):
        super().__init__()
        rng = np.random.default_rng(config.seed)
        self.config = config
        self.embedding = Embedding(config.vocab_size, config.embedding_size, rng=rng)
        rnn_cls = GRU if config.rnn_type == "gru" else LSTM
        self.encoder = rnn_cls(config.embedding_size, config.hidden_size,
                               num_layers=config.num_layers,
                               dropout=config.dropout, rng=rng)
        self.decoder = rnn_cls(config.embedding_size, config.hidden_size,
                               num_layers=config.num_layers,
                               dropout=config.dropout, rng=rng)
        # Output projection: rows are per-token vectors W_u (paper notation).
        self.proj_weight = Parameter(
            init.xavier_uniform(rng, (config.vocab_size, config.hidden_size)))
        self.proj_bias = Parameter(init.zeros((config.vocab_size,)))

    # ------------------------------------------------------------------
    # Encoder
    # ------------------------------------------------------------------
    def encode(self, src: np.ndarray, src_mask: np.ndarray
               ) -> Tuple[Tensor, List[Tensor]]:
        """Encode a time-major token batch.

        Returns ``(v, state)``: ``v`` is the ``(batch, hidden)`` trajectory
        representation (top-layer final hidden state) and ``state`` is the
        per-layer final state used to initialize the decoder.
        """
        _, state = self.encoder(self.embedding(src), mask=src_mask)
        return self._top_hidden(state), state

    def _top_hidden(self, state) -> Tensor:
        """Top-layer hidden vector regardless of the RNN family."""
        top = state[-1]
        return top[0] if isinstance(top, tuple) else top

    def represent(self, src: np.ndarray, src_mask: np.ndarray) -> np.ndarray:
        """Inference helper: representation vectors as a plain array."""
        was_training = self.training
        self.eval()
        try:
            v, _ = self.encode(src, src_mask)
        finally:
            self.train(was_training)
        return v.numpy().copy()

    # ------------------------------------------------------------------
    # Decoder
    # ------------------------------------------------------------------
    def decode(self, tgt_in: np.ndarray, state: List[Tensor],
               tgt_mask: Optional[np.ndarray] = None) -> Tensor:
        """Teacher-forced decoding.

        Returns all decoder hidden states stacked into one
        ``(T * batch, hidden)`` tensor (time-major flattening), ready for
        a single loss evaluation over every step.
        """
        t_steps, batch = tgt_in.shape
        out_seq, _ = self.decoder(self.embedding(tgt_in), h0=state,
                                  mask=tgt_mask)
        # The output is already time-major (T, B, H); flattening is a
        # reshape view, no intermediate stack node.
        return out_seq.reshape(t_steps * batch, self.config.hidden_size)

    def logits(self, hidden: Tensor) -> Tensor:
        """Full-vocabulary scores ``hidden @ W^T + b`` (for L1/L2)."""
        return hidden @ self.proj_weight.T + self.proj_bias

    # ------------------------------------------------------------------
    # Beam-search generation (higher-quality route recovery)
    # ------------------------------------------------------------------
    def beam_decode(self, src: np.ndarray, src_mask: np.ndarray,
                    beam_width: int = 4, max_len: int = 100) -> List[np.ndarray]:
        """Reconstruct token sequences with beam search.

        Greedy decoding commits to the locally best cell at every step;
        with spatially smoothed training targets (L2/L3) several adjacent
        cells often score almost equally and greedy paths can wander.
        Beam search keeps the ``beam_width`` best partial routes and
        returns the highest-scoring complete one (log-probability,
        length-normalized), one array of tokens per batch column.
        """
        if beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        was_training = self.training
        self.eval()
        try:
            _, state = self.encode(src, src_mask)
            results = []
            for b in range(src.shape[1]):
                column_state = self._select_column(state, b)
                results.append(self._beam_one(column_state, beam_width, max_len))
            return results
        finally:
            self.train(was_training)

    def _select_column(self, state, index: int):
        """Slice one batch column out of an encoder state (GRU or LSTM)."""
        def pick(tensor: Tensor) -> Tensor:
            return Tensor(tensor.numpy()[index:index + 1])

        selected = []
        for layer in state:
            if isinstance(layer, tuple):
                selected.append(tuple(pick(part) for part in layer))
            else:
                selected.append(pick(layer))
        return selected

    def _beam_one(self, state, beam_width: int, max_len: int) -> np.ndarray:
        # Each beam: (score_sum, tokens, state); finished: (normalized, tokens)
        beams = [(0.0, [], state)]
        finished = []
        for _ in range(max_len):
            expansions = []
            for score, tokens, beam_state in beams:
                previous = tokens[-1] if tokens else BOS
                step = self.embedding(np.array([[previous]]))
                _, new_state = self.decoder(step, h0=beam_state)
                log_probs = log_softmax(
                    self.logits(self._top_hidden(new_state)), axis=1).numpy()[0]
                log_probs[BOS] = -np.inf
                top = np.argpartition(-log_probs, beam_width)[:beam_width + 1]
                for token in top:
                    expansions.append((score + float(log_probs[token]),
                                       tokens + [int(token)], new_state))
            expansions.sort(key=lambda item: -item[0])
            beams = []
            for score, tokens, beam_state in expansions:
                if tokens[-1] == EOS:
                    finished.append((score / len(tokens), tokens[:-1]))
                elif len(beams) < beam_width:
                    beams.append((score, tokens, beam_state))
                if len(beams) >= beam_width:
                    break
            if not beams:
                break
        if not finished:  # no beam emitted EOS within max_len
            finished = [(score / max(len(tokens), 1), tokens)
                        for score, tokens, _ in beams]
        best = max(finished, key=lambda item: item[0])
        return np.array(best[1], dtype=np.int64)

    # ------------------------------------------------------------------
    # Greedy generation (route recovery; used in examples and tests)
    # ------------------------------------------------------------------
    def greedy_decode(self, src: np.ndarray, src_mask: np.ndarray,
                      max_len: int = 100) -> List[np.ndarray]:
        """Reconstruct the most likely token sequence for each source.

        Returns one array of tokens per batch element (EOS excluded).
        This realizes the paper's motivation: the decoder recovers the
        (dense) route from a degraded trajectory.
        """
        was_training = self.training
        self.eval()
        try:
            _, state = self.encode(src, src_mask)
            batch = src.shape[1]
            tokens = np.full(batch, BOS, dtype=np.int64)
            finished = np.zeros(batch, dtype=bool)
            emitted: List[np.ndarray] = []   # (batch,) tokens per step
            kept: List[np.ndarray] = []      # (batch,) bools: token counts
            for _ in range(max_len):
                _, state = self.decoder(self.embedding(tokens[None]),
                                        h0=state)
                scores = self.logits(self._top_hidden(state)).numpy()
                scores[:, BOS] = -np.inf  # never re-emit the start token
                tokens = scores.argmax(axis=1)
                is_eos = tokens == EOS
                kept.append(~finished & ~is_eos)
                emitted.append(tokens)
                finished |= is_eos
                if finished.all():
                    break
            # One boolean-mask slice per batch element at the end replaces
            # the per-step per-element Python loop.
            emitted_arr = np.stack(emitted)
            kept_arr = np.stack(kept)
            return [emitted_arr[kept_arr[:, b], b].astype(np.int64)
                    for b in range(batch)]
        finally:
            self.train(was_training)
