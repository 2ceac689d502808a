"""Baseline trajectory similarity measures.

Every measure implements the :class:`TrajectoryDistance` interface so
the evaluation harness treats them and t2vec uniformly:

* :class:`DTW` — dynamic time warping (dominated by EDR; completeness).
* :class:`EDR` — edit distance on real sequences (threshold ε).
* :class:`LCSS` — longest common subsequence (threshold ε).
* :class:`ERP` — edit distance with real penalty (metric; completeness).
* :class:`EDwP` — edit distance with projections (state-of-the-art
  pairwise baseline for inconsistent sampling rates).
* :class:`CMS` — common hot-cell set (Jaccard) — order-blind control.
* :class:`VanillaRNNEmbedding` — next-cell GRU language model (vRNN).
"""

from .base import TrajectoryDistance, stack_padded
from .cms import CMS
from .dissim import DISSIM
from .dtw import DTW
from .edr import EDR, suggest_epsilon
from .edwp import EDwP
from .erp import ERP
from .lcss import LCSS
from .vanilla_rnn import VanillaRNNEmbedding

__all__ = [
    "CMS",
    "DISSIM",
    "DTW",
    "EDR",
    "EDwP",
    "ERP",
    "LCSS",
    "TrajectoryDistance",
    "VanillaRNNEmbedding",
    "stack_padded",
    "suggest_epsilon",
]
