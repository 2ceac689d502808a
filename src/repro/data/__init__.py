"""Data substrate: trajectories, the synthetic city, transforms, batching.

Replaces the paper's Porto/Harbin GPS archives with a synthetic city
whose route popularity is Zipf-skewed (DESIGN.md §2); a loader for the
real Porto CSV is provided for users who have the file.
"""

from .archive import load_archive, save_archive
from .dataset import (Batch, BatchSource, TokenPairDataset, make_batch,
                      pad_batch, tokenize)
from .generator import (CityConfig, SyntheticCity, dataset_statistics,
                        harbin_like, porto_like)
from .pipeline import (TrainingDataPipeline, pair_rng,
                       synthesize_token_pairs)
from .porto import load_porto
from .roadnet import RoadNetwork
from .trajectory import Trajectory
from .transforms import (DEFAULT_DISTORTING_RATES, DEFAULT_DROPPING_RATES,
                         DISTORTION_RADIUS_M, alternating_split, degrade,
                         distort, downsample)

__all__ = [
    "Batch",
    "BatchSource",
    "CityConfig",
    "DEFAULT_DISTORTING_RATES",
    "DEFAULT_DROPPING_RATES",
    "DISTORTION_RADIUS_M",
    "RoadNetwork",
    "SyntheticCity",
    "TokenPairDataset",
    "TrainingDataPipeline",
    "Trajectory",
    "alternating_split",
    "dataset_statistics",
    "degrade",
    "distort",
    "downsample",
    "harbin_like",
    "load_archive",
    "load_porto",
    "make_batch",
    "pair_rng",
    "save_archive",
    "pad_batch",
    "porto_like",
    "synthesize_token_pairs",
    "tokenize",
]
