"""t2vec core: the paper's primary contribution.

* :class:`T2Vec` / :class:`T2VecConfig` — the end-to-end public API.
* :class:`EncoderDecoder` — the GRU seq2seq model.
* :class:`LossSpec` — selects L1 / L2 / L3 decoder losses.
* :class:`Trainer` — Adam + clipping + early stopping.
* :class:`CellEmbeddingTrainer` — Algorithm 1 cell pretraining.
* :class:`ExactIndex` / :class:`LSHIndex` — vector k-NN search.
"""

from .cell_embedding import CellEmbeddingConfig, CellEmbeddingTrainer
from .encoder_decoder import EncoderDecoder, ModelConfig
from .index import ExactIndex, LSHIndex
from .losses import LossSpec, sequence_loss
from .series import (Series2Vec, Series2VecConfig, SeriesVocabulary,
                     distort_series, downsample_series)
from .t2vec import T2Vec, T2VecConfig
from .trainer import Trainer, TrainingConfig, TrainingResult

__all__ = [
    "CellEmbeddingConfig",
    "CellEmbeddingTrainer",
    "EncoderDecoder",
    "ExactIndex",
    "LSHIndex",
    "LossSpec",
    "ModelConfig",
    "Series2Vec",
    "Series2VecConfig",
    "SeriesVocabulary",
    "T2Vec",
    "T2VecConfig",
    "Trainer",
    "TrainingConfig",
    "TrainingResult",
    "distort_series",
    "downsample_series",
    "sequence_loss",
]
