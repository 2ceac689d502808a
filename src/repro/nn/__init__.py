"""Neural-network substrate: numpy autograd, layers, GRU/LSTM, losses, Adam.

This package replaces the paper's PyTorch dependency with a from-scratch
implementation (see DESIGN.md §2).  Public surface:

* :class:`Tensor` plus :func:`concat` / :func:`stack` — autograd arrays.
* :class:`Module` / :class:`Parameter` — model building blocks.
* :class:`Linear`, :class:`Embedding`, :class:`Dropout` — layers.
* :class:`GRU`, :class:`LSTM` — recurrent stacks sharing one stack loop
  (:class:`~repro.nn.rnn.RecurrentStack`) over the whole-sequence layer
  kernels :func:`gru_layer_forward` / :func:`lstm_layer_forward`;
  ``GRUCell``/``LSTMCell`` hold one layer's parameters.
* :func:`nll_loss` (L1), :func:`weighted_nll_loss` (L2),
  :func:`sampled_weighted_loss` (L3) — the paper's decoder losses.
* :class:`Adam`, :func:`clip_grad_norm` — optimization.
* :func:`save_checkpoint` / :func:`load_checkpoint` — persistence.
"""

from . import functional, init
from .layers import Dropout, Embedding, Linear
from .loss import (masked_sampled_loss, nll_loss, sampled_weighted_loss,
                   weighted_nll_loss)
from .module import Module, Parameter
from .optim import Adam, clip_grad_norm
from .lstm import LSTM, LSTMCell, lstm_layer_forward
from .rnn import GRU, GRUCell, gru_layer_forward
from .serialization import load_checkpoint, save_checkpoint
from .tensor import (Tensor, concat, get_default_dtype, set_default_dtype,
                     stack)

__all__ = [
    "Adam",
    "Dropout",
    "Embedding",
    "GRU",
    "GRUCell",
    "LSTM",
    "LSTMCell",
    "Linear",
    "Module",
    "Parameter",
    "Tensor",
    "clip_grad_norm",
    "concat",
    "functional",
    "get_default_dtype",
    "gru_layer_forward",
    "set_default_dtype",
    "init",
    "lstm_layer_forward",
    "load_checkpoint",
    "masked_sampled_loss",
    "nll_loss",
    "sampled_weighted_loss",
    "save_checkpoint",
    "stack",
    "weighted_nll_loss",
]
