"""Generic time-series representation learning (paper §VI future work 2).

The paper's conclusion proposes "extending the proposed method to more
general time series data beyond trajectories".  Nothing in the model is
trajectory-specific once the data is tokenized: this module discretizes
1-D real-valued series into quantile bins (the 1-D analogue of grid
cells), reuses the proximity kernels through
:class:`~repro.spatial.proximity.ProximityVocabulary`, and trains the
same encoder-decoder with the same L1/L2/L3 losses.

Degradation transforms mirror the trajectory ones: down-sampling drops
interior samples (endpoints kept); distortion adds Gaussian value noise
to a fraction of the samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..data.dataset import TokenPairDataset, pad_batch
from ..spatial.proximity import ProximityVocabulary
from .cell_embedding import CellEmbeddingConfig, CellEmbeddingTrainer
from .encoder_decoder import EncoderDecoder, ModelConfig
from .losses import LossSpec
from .trainer import Trainer, TrainingConfig, TrainingResult


class SeriesVocabulary(ProximityVocabulary):
    """Quantile-bin token space for 1-D real-valued series.

    Bin centers play the role of cell centroids, so value proximity
    drives the spatial-aware losses exactly like spatial proximity does
    for trajectories.
    """

    def __init__(self, centers: np.ndarray):
        centers = np.asarray(centers, dtype=float).reshape(-1, 1)
        if len(centers) < 2:
            raise ValueError("a series vocabulary needs at least two bins")
        super().__init__(centers)

    @classmethod
    def build(cls, series: Sequence[np.ndarray], num_bins: int = 64) -> "SeriesVocabulary":
        """Quantile binning over the pooled values of the training series."""
        values = np.concatenate([np.asarray(s, dtype=float).ravel()
                                 for s in series])
        if values.size == 0:
            raise ValueError("cannot build a vocabulary from empty series")
        quantiles = np.linspace(0.0, 1.0, num_bins + 1)[1:-1]
        edges = np.unique(np.quantile(values, quantiles))
        centers = np.concatenate([
            [values.min()],
            (edges[:-1] + edges[1:]) / 2.0 if len(edges) > 1 else [],
            [values.max()],
        ])
        return cls(np.unique(centers))

    def tokenize_series(self, series: np.ndarray) -> np.ndarray:
        """Map a 1-D series to nearest-bin-center tokens."""
        return self.tokenize_points(np.asarray(series, dtype=float).reshape(-1, 1))


def downsample_series(series: np.ndarray, rate: float,
                      rng: np.random.Generator) -> np.ndarray:
    """Drop interior samples with probability ``rate`` (endpoints kept)."""
    series = np.asarray(series, dtype=float)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"rate must be in [0, 1), got {rate}")
    if rate == 0.0 or len(series) <= 2:
        return series
    keep = rng.random(len(series)) >= rate
    keep[0] = keep[-1] = True
    return series[keep]


def distort_series(series: np.ndarray, rate: float, scale: float,
                   rng: np.random.Generator) -> np.ndarray:
    """Add Gaussian noise of the given scale to a fraction of the samples."""
    series = np.asarray(series, dtype=float).copy()
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    selected = rng.random(len(series)) < rate
    series[selected] += rng.normal(0.0, scale, size=int(selected.sum()))
    return series


@dataclass(frozen=True)
class Series2VecConfig:
    """Configuration of the generic series encoder."""

    num_bins: int = 64
    embedding_size: int = 32
    hidden_size: int = 32
    num_layers: int = 1
    dropout: float = 0.0
    loss: LossSpec = LossSpec(k_nearest=8, noise=32)
    theta_quantile: float = 0.05   # theta = this quantile of value range
    pretrain_bins: bool = True
    dropping_rates: tuple = (0.0, 0.2, 0.4)
    distorting_rates: tuple = (0.0, 0.2)
    distortion_scale_quantile: float = 0.02
    training: TrainingConfig = TrainingConfig(batch_size=128, max_epochs=6)
    val_fraction: float = 0.1
    seed: int = 0


class Series2Vec:
    """t2vec for generic 1-D series: fit / encode / distance."""

    def __init__(self, config: Series2VecConfig = Series2VecConfig()):
        self.config = config
        self.vocab: Optional[SeriesVocabulary] = None
        self.model: Optional[EncoderDecoder] = None
        self.last_result: Optional[TrainingResult] = None
        self._rng = np.random.default_rng(config.seed)
        self._theta: Optional[float] = None
        self._noise_scale: Optional[float] = None

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(self, series: Sequence[np.ndarray]) -> TrainingResult:
        series = [np.asarray(s, dtype=float).ravel() for s in series]
        series = [s for s in series if len(s) >= 4]
        if len(series) < 2:
            raise ValueError("fit needs at least two series of length >= 4")
        cfg = self.config
        self.vocab = SeriesVocabulary.build(series, cfg.num_bins)
        values = np.concatenate(series)
        value_range = float(values.max() - values.min()) or 1.0
        self._theta = max(1e-9, cfg.theta_quantile * value_range)
        self._noise_scale = cfg.distortion_scale_quantile * value_range

        loss = LossSpec(kind=cfg.loss.kind, k_nearest=cfg.loss.k_nearest,
                        theta=self._theta, noise=cfg.loss.noise)
        self.model = EncoderDecoder(ModelConfig(
            vocab_size=self.vocab.size, embedding_size=cfg.embedding_size,
            hidden_size=cfg.hidden_size, num_layers=cfg.num_layers,
            dropout=cfg.dropout, seed=cfg.seed))
        if cfg.pretrain_bins:
            trainer = CellEmbeddingTrainer(self.vocab, CellEmbeddingConfig(
                dim=cfg.embedding_size, k_nearest=loss.k_nearest,
                theta=self._theta, epochs=2, seed=cfg.seed))
            vectors = trainer.train()
            vectors[:4] = self.model.embedding.weight.data[:4]
            self.model.embedding.load_pretrained(vectors)

        n_val = max(1, int(len(series) * cfg.val_fraction))
        train_series, val_series = series[:-n_val], series[-n_val:]
        train_ds = self._make_dataset(train_series)
        val_ds = self._make_dataset(val_series) if val_series else None
        trainer = Trainer(self.model, self.vocab, loss, cfg.training)
        self.last_result = trainer.fit(train_ds, validation=val_ds)
        return self.last_result

    def _make_dataset(self, series: Sequence[np.ndarray]) -> TokenPairDataset:
        cfg = self.config
        sources, targets = [], []
        for s in series:
            target_tokens = self.vocab.tokenize_series(s)
            for r1 in cfg.dropping_rates:
                for r2 in cfg.distorting_rates:
                    degraded = distort_series(
                        downsample_series(s, r1, self._rng),
                        r2, self._noise_scale, self._rng)
                    sources.append(self.vocab.tokenize_series(degraded))
                    targets.append(target_tokens)
        return TokenPairDataset(sources, targets)

    # ------------------------------------------------------------------
    # Encoding / similarity
    # ------------------------------------------------------------------
    def encode(self, series: np.ndarray) -> np.ndarray:
        return self.encode_many([series])[0]

    def encode_many(self, series: Sequence[np.ndarray]) -> np.ndarray:
        if self.model is None:
            raise RuntimeError("Series2Vec is not fitted; call fit() first")
        sequences = [self.vocab.tokenize_series(s) for s in series]
        batch, mask = pad_batch(sequences)
        return self.model.represent(batch, mask)

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        va, vb = self.encode_many([a, b])
        return float(np.sqrt(((va - vb) ** 2).sum()))

    def knn(self, query: np.ndarray, candidates: Sequence[np.ndarray],
            k: int) -> np.ndarray:
        """Indices of the k most similar candidate series."""
        vq = self.encode(query)
        vc = self.encode_many(candidates)
        dists = np.sqrt(((vc - vq[None, :]) ** 2).sum(axis=1))
        k = min(k, len(dists))
        idx = np.argpartition(dists, k - 1)[:k]
        return idx[np.argsort(dists[idx], kind="stable")]
