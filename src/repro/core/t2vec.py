"""The t2vec public API.

:class:`T2Vec` bundles the full pipeline of the paper behind a
scikit-learn-ish interface:

>>> model = T2Vec()
>>> model.fit(training_trajectories)
>>> v = model.encode(trajectory)                 # (hidden,) vector
>>> d = model.distance(traj_a, traj_b)           # Euclidean in vector space
>>> idx = model.knn(query, database, k=10)       # k nearest trajectories

``fit`` performs, in order: grid construction, hot-cell vocabulary
extraction (δ threshold), cell-embedding pretraining (Algorithm 1),
training-pair synthesis (16 degraded variants per trajectory), and
seq2seq training with the selected loss (L1 / L2 / L3).

:class:`T2Vec` implements :class:`~repro.baselines.base.TrajectoryDistance`,
so the evaluation harness treats it exactly like the baselines.

Observability: ``fit`` accepts trainer ``callbacks``; encoding and the
pipeline phases record latency histograms, cache hit counters, and spans
into a :class:`~repro.telemetry.MetricsRegistry` (the process default
unless one is passed to the constructor).
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from ..baselines.base import TrajectoryDistance
from ..data.dataset import pad_batch, tokenize
from ..data.transforms import DEFAULT_DISTORTING_RATES, DEFAULT_DROPPING_RATES
from ..data.pipeline import TrainingDataPipeline
from ..data.trajectory import Trajectory
from ..nn.serialization import load_checkpoint, save_checkpoint
from ..spatial.grid import Grid
from ..spatial.vocab import CellVocabulary
from ..telemetry import Callback, MetricsRegistry, get_registry
from .cell_embedding import CellEmbeddingConfig, CellEmbeddingTrainer
from .encoder_decoder import EncoderDecoder, ModelConfig
from .index import ExactIndex, pairwise_distances
from .losses import LossSpec
from .trainer import Trainer, TrainingConfig, TrainingResult


@dataclass(frozen=True)
class T2VecConfig:
    """End-to-end configuration; defaults follow DESIGN.md §7."""

    cell_size: float = 100.0            # meters (paper: 100)
    min_hits: int = 5                   # hot-cell threshold δ (paper: 50)
    embedding_size: int = 64            # cell vector dim d (paper: 256)
    hidden_size: int = 64               # |v| (paper: 256)
    num_layers: int = 2                 # GRU layers (paper: 3)
    dropout: float = 0.1
    rnn_type: str = "gru"               # paper's choice; "lstm" for ablation
    loss: LossSpec = LossSpec()
    pretrain_cells: bool = True         # run Algorithm 1 (CL)
    cell_epochs: int = 3
    dropping_rates: tuple = DEFAULT_DROPPING_RATES
    distorting_rates: tuple = DEFAULT_DISTORTING_RATES
    training: TrainingConfig = TrainingConfig()
    val_fraction: float = 0.1
    encode_cache_size: int = 100_000    # LRU cap on cached encodings
    seed: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict covering *every* field, nested configs included.

        ``T2VecConfig.from_dict(cfg.to_dict()) == cfg`` holds, so a saved
        model can be re-``fit`` with an identical configuration.
        """
        data: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, LossSpec):
                value = value.to_dict()
            elif isinstance(value, TrainingConfig):
                value = value.to_dict()
            elif isinstance(value, tuple):
                value = list(value)
            data[f.name] = value
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "T2VecConfig":
        """Inverse of :meth:`to_dict`.

        Missing keys fall back to the dataclass defaults (older
        checkpoints carry partial configs); unknown keys are rejected.
        """
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown T2VecConfig keys: {sorted(unknown)}")
        kwargs = dict(data)
        if "loss" in kwargs and isinstance(kwargs["loss"], dict):
            kwargs["loss"] = LossSpec.from_dict(kwargs["loss"])
        if "training" in kwargs and isinstance(kwargs["training"], dict):
            kwargs["training"] = TrainingConfig.from_dict(kwargs["training"])
        for key in ("dropping_rates", "distorting_rates"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)


class T2Vec(TrajectoryDistance):
    """Trajectory-to-vector model (the paper's primary contribution)."""

    name = "t2vec"

    def __init__(self, config: T2VecConfig = T2VecConfig(),
                 registry: Optional[MetricsRegistry] = None):
        self.config = config
        self.registry = registry
        self.grid: Optional[Grid] = None
        self.vocab: Optional[CellVocabulary] = None
        self.model: Optional[EncoderDecoder] = None
        self.last_result: Optional[TrainingResult] = None
        self._encodings: "OrderedDict[bytes, np.ndarray]" = OrderedDict()
        self._rng = np.random.default_rng(config.seed)

    def _registry(self) -> MetricsRegistry:
        return self.registry or get_registry()

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(self, trajectories: Sequence[Trajectory],
            validation: Optional[Sequence[Trajectory]] = None,
            callbacks: Sequence[Callback] = ()) -> TrainingResult:
        """Run the full training pipeline on a trajectory archive.

        When ``validation`` is omitted, the last ``val_fraction`` of the
        input is held out (the paper splits by starting timestamp, which
        for our generators is the list order).  ``callbacks`` are passed
        straight to :meth:`Trainer.fit`.
        """
        reg = self._registry()
        trajectories = list(trajectories)
        if len(trajectories) < 2:
            raise ValueError("fit needs at least two trajectories")
        if validation is None and self.config.val_fraction > 0:
            n_val = max(1, int(len(trajectories) * self.config.val_fraction))
            validation = trajectories[-n_val:]
            trajectories = trajectories[:-n_val]

        with reg.span("t2vec.fit", record_histogram=False):
            with reg.span("t2vec.build_vocab", record_histogram=False):
                self._build_vocabulary(trajectories)
            with reg.span("t2vec.build_model", record_histogram=False):
                self._build_model()
            with reg.span("t2vec.build_pairs", record_histogram=False):
                train_ds, val_ds = self._build_datasets(trajectories,
                                                        validation)

            trainer = Trainer(self.model, self.vocab, self.config.loss,
                              self.config.training, registry=self.registry)
            self.last_result = trainer.fit(train_ds, validation=val_ds,
                                           callbacks=callbacks)
        self._encodings.clear()
        return self.last_result

    def _build_vocabulary(self, trajectories: Sequence[Trajectory]) -> None:
        points = np.concatenate([t.points for t in trajectories], axis=0)
        self.grid = Grid.covering(points, self.config.cell_size)
        self.vocab = CellVocabulary.build(self.grid, points,
                                          min_hits=self.config.min_hits)

    def _new_model(self) -> EncoderDecoder:
        """The seeded encoder-decoder that ``config`` and ``vocab`` describe;
        both fitting and :meth:`load` build the model here."""
        cfg = self.config
        return EncoderDecoder(ModelConfig(
            vocab_size=self.vocab.size,
            embedding_size=cfg.embedding_size,
            hidden_size=cfg.hidden_size,
            num_layers=cfg.num_layers,
            dropout=cfg.dropout,
            rnn_type=cfg.rnn_type,
            seed=cfg.seed,
        ))

    def _build_model(self) -> None:
        cfg = self.config
        self.model = self._new_model()
        if cfg.pretrain_cells:
            cell_trainer = CellEmbeddingTrainer(self.vocab, CellEmbeddingConfig(
                dim=cfg.embedding_size,
                k_nearest=cfg.loss.k_nearest,
                theta=cfg.loss.theta,
                epochs=cfg.cell_epochs,
                seed=cfg.seed,
            ))
            vectors = cell_trainer.train()
            # Keep the model's random vectors for the special tokens.
            vectors[:4] = self.model.embedding.weight.data[:4]
            self.model.embedding.load_pretrained(vectors)

    def _build_datasets(self, train: Sequence[Trajectory],
                        validation: Optional[Sequence[Trajectory]]):
        """Training pipeline + materialized validation set.

        Training streams through :class:`TrainingDataPipeline`
        (``training.num_workers`` processes, batches bucketed by length
        in windows of ``training.bucket_batches``).  Validation is
        synthesized by the same deterministic per-original seeding but
        materialized once, because it is evaluated every round.
        """
        cfg = self.config
        train_seed = int(self._rng.integers(2 ** 31 - 1))
        val_seed = int(self._rng.integers(2 ** 31 - 1))
        train_ds = TrainingDataPipeline(
            train, self.vocab, cfg.dropping_rates, cfg.distorting_rates,
            seed=train_seed,
            num_workers=cfg.training.num_workers,
            bucket_batches=cfg.training.bucket_batches,
            registry=self.registry)
        val_ds = None
        if validation:
            val_ds = TrainingDataPipeline(
                validation, self.vocab, cfg.dropping_rates,
                cfg.distorting_rates, seed=val_seed,
                registry=self.registry).materialize()
        return train_ds, val_ds

    # ------------------------------------------------------------------
    # Encoding and similarity
    # ------------------------------------------------------------------
    def _require_fitted(self) -> None:
        if self.model is None or self.vocab is None:
            raise RuntimeError("T2Vec is not fitted; call fit() or load() first")

    def encode(self, trajectory: Trajectory) -> np.ndarray:
        """The trajectory's representation vector ``v`` (shape ``(hidden,)``)."""
        return self.encode_many([trajectory])[0]

    def encode_many(self, trajectories: Sequence[Trajectory],
                    batch_size: int = 256) -> np.ndarray:
        """Embed many trajectories (O(n) each); cached by content key.

        The cache is a bounded LRU (``config.encode_cache_size`` entries);
        hits, misses, and evictions are recorded in the metrics registry,
        along with a per-trajectory encode-latency histogram.
        """
        self._require_fitted()
        if len(trajectories) == 0:
            return np.empty((0, self.model.config.hidden_size),
                            dtype=self.model.proj_weight.data.dtype)
        reg = self._registry()
        cache = self._encodings
        unique: "OrderedDict[bytes, Trajectory]" = OrderedDict(
            (t.cache_key(), t) for t in trajectories)
        # Requested vectors are kept in a local dict as well, so results
        # survive even when the LRU cap evicts them within this call.
        resolved: Dict[bytes, np.ndarray] = {}
        missing: List[Trajectory] = []
        for key, traj in unique.items():
            if key in cache:
                cache.move_to_end(key)
                resolved[key] = cache[key]
                reg.counter("encode.cache_hits").inc()
            else:
                missing.append(traj)
                reg.counter("encode.cache_misses").inc()

        for start in range(0, len(missing), batch_size):
            chunk = missing[start:start + batch_size]
            chunk_start = time.perf_counter()
            sequences = [tokenize(t, self.vocab) for t in chunk]
            batch, mask = pad_batch(sequences)
            vectors = self.model.represent(batch, mask)
            chunk_time = time.perf_counter() - chunk_start
            reg.histogram("encode.latency_s").observe(chunk_time / len(chunk))
            for traj, vec in zip(chunk, vectors):
                key = traj.cache_key()
                resolved[key] = vec
                cache[key] = vec
                cache.move_to_end(key)
            self._evict(reg)
        return np.stack([resolved[t.cache_key()] for t in trajectories])

    def _evict(self, reg: MetricsRegistry) -> None:
        cap = self.config.encode_cache_size
        if cap is None or cap < 1:
            return
        while len(self._encodings) > cap:
            self._encodings.popitem(last=False)
            reg.counter("encode.cache_evictions").inc()

    @property
    def cache_info(self) -> Dict[str, int]:
        """Current size and capacity of the encoding LRU cache."""
        return {"size": len(self._encodings),
                "capacity": self.config.encode_cache_size}

    def distance(self, a: Trajectory, b: Trajectory) -> float:
        va, vb = self.encode_many([a, b])
        return float(np.sqrt(((va - vb) ** 2).sum()))

    def distance_to_many(self, query: Trajectory,
                         candidates: Sequence[Trajectory]) -> np.ndarray:
        vq = self.encode(query)
        vc = self.encode_many(candidates)
        return np.sqrt(((vc - vq[None, :]) ** 2).sum(axis=1))

    def distance_matrix(self, queries: Sequence[Trajectory],
                        candidates: Sequence[Trajectory]) -> np.ndarray:
        """All query-candidate distances via one blocked GEMM.

        Both sides are encoded in batches and the ``(Q, N)`` matrix comes
        out of the tiled ``||x||² + ||q||² − 2·X@Qᵀ`` identity — the
        whole evaluation protocol's distances in a handful of BLAS calls
        instead of ``Q`` python-level scans.
        """
        if len(queries) == 0:
            return np.zeros((0, len(candidates)))
        vq = self.encode_many(list(queries))
        vc = self.encode_many(list(candidates))
        return pairwise_distances(vq, vc)

    def knn_batch(self, queries: Sequence[Trajectory],
                  candidates: Sequence[Trajectory], k: int) -> np.ndarray:
        """Batched k-NN through :class:`ExactIndex` over encoded vectors."""
        if len(queries) == 0:
            return np.zeros((0, min(k, len(candidates))), dtype=np.int64)
        index = ExactIndex(self.encode_many(list(candidates)),
                           registry=self.registry)
        idx, _ = index.knn_batch(self.encode_many(list(queries)), k)
        return idx

    def knn(self, query: Trajectory, candidates: Sequence[Trajectory],
            k: int) -> np.ndarray:
        """Indices of the k nearest candidates — wrapper over the batched path."""
        return self.knn_batch([query], candidates, k)[0]

    def reconstruct_route(self, trajectory: Trajectory, max_len: int = 100,
                          beam_width: int = 1) -> np.ndarray:
        """Decode the most likely dense route as ``(n, 2)`` cell centroids.

        This is the paper's core intuition made visible: from a degraded
        trajectory the decoder recovers the underlying route.
        ``beam_width > 1`` switches from greedy to beam-search decoding,
        which tracks several candidate routes and usually stays closer to
        the true one when the spatially smoothed output distribution is
        flat.
        """
        self._require_fitted()
        tokens = tokenize(trajectory, self.vocab)
        batch, mask = pad_batch([tokens])
        if beam_width > 1:
            decoded = self.model.beam_decode(batch, mask,
                                             beam_width=beam_width,
                                             max_len=max_len)[0]
        else:
            decoded = self.model.greedy_decode(batch, mask, max_len=max_len)[0]
        hot = decoded[decoded >= 4]
        if len(hot) == 0:
            return np.empty((0, 2))
        return self.vocab.centroid_of_tokens(hot)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> None:
        """Write model weights, vocabulary, and configuration to one file.

        The metadata embeds ``config.to_dict()`` verbatim, so *every*
        field (nested ``TrainingConfig`` and ``LossSpec`` included)
        survives a save → load roundtrip.
        """
        self._require_fitted()
        state = self.model.state_dict()
        state["_vocab.hot_cells"] = self.vocab.hot_cells
        if self.vocab.hit_counts is not None:
            state["_vocab.hit_counts"] = self.vocab.hit_counts
        meta = {
            "grid": {
                "min_x": self.grid.min_x, "min_y": self.grid.min_y,
                "max_x": self.grid.max_x, "max_y": self.grid.max_y,
                "cell_size": self.grid.cell_size,
            },
            "config": self.config.to_dict(),
        }
        save_checkpoint(path, state, meta)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "T2Vec":
        """Restore a model written by :meth:`save`.

        Older checkpoints with partial config metadata load with default
        values for the missing fields.
        """
        state, meta = load_checkpoint(path)
        if meta is None:
            raise ValueError(f"{path} has no t2vec metadata")
        config = T2VecConfig.from_dict(meta["config"])
        instance = cls(config)
        grid_meta = meta["grid"]
        instance.grid = Grid(**grid_meta)
        hot_cells = state.pop("_vocab.hot_cells")
        hit_counts = state.pop("_vocab.hit_counts", None)
        instance.vocab = CellVocabulary(instance.grid, hot_cells, hit_counts)
        instance.model = instance._new_model()
        instance.model.load_state_dict(state)
        return instance
