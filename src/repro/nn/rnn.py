"""Gated recurrent units: a multi-layer ``GRU`` over whole sequences.

The paper uses a 3-layer GRU for both the encoder and the decoder
(Section V-B).  The implementation follows the standard (cuDNN/PyTorch)
gate formulation:

    r = sigmoid(W_ir x + b_ir + W_hr h + b_hr)
    z = sigmoid(W_iz x + b_iz + W_hz h + b_hz)
    n = tanh(W_in x + b_in + r * (W_hn h + b_hn))
    h' = (1 - z) * n + z * h

Variable-length mini-batches are handled with a step mask: on padded
steps a sequence's hidden state is carried through unchanged, so the
final state is the state at each sequence's true last token.

:func:`gru_layer_forward` runs one layer over a whole ``(T, B, in)``
sequence as a single tape node: the input-to-hidden projection of all
timesteps is one ``(T*B, in) @ (in, 3H)`` GEMM, the recurrence is a
tight numpy loop, and the backward runs BPTT analytically.
:class:`RecurrentStack` is the one stack loop over this kernel and
:func:`~repro.nn.lstm.lstm_layer_forward`: :class:`GRU` and
:class:`~repro.nn.lstm.LSTM` supply only their cell, zero state and
kernel call.  Its ``forward`` is the one execution path for training,
encoding and generation; a one-token decoding step is a call with
``T = 1``.  :class:`GRUCell` holds one layer's parameters.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
from scipy.special import expit

from . import init
from .layers import Dropout
from .module import Module, Parameter
from .tensor import Tensor


def _sigmoid_(x: np.ndarray) -> np.ndarray:
    """In-place sigmoid for the layer kernels.

    ``scipy.special.expit`` stays so that results are bit-identical with
    every model trained so far.  It is not the fastest form once the
    batch grows: measured in float32 on a ``(64, 512)`` slab, ``expit``
    takes ~197 µs against ~51 µs for the clipped ``1/(1+exp(-x))``
    chain and ~31 µs for ``0.5*tanh(0.5x)+0.5``; only at one row
    (B=1) does its single ufunc call win.  A faster form changes float32
    results by up to 1 ULP, which is enough to move a refit model's mean
    ranks (see docs/performance.md).
    """
    return expit(x, out=x)


def _sequence_mask(mask, t_steps: int, batch: int, dtype
                   ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """Normalize a ``(T, B)`` step mask for the layer kernels.

    Returns ``(mask_f, padded)`` where ``mask_f`` is a ``(T, B, 1)`` float
    array in the compute dtype and ``padded`` is a ``(T,)`` bool array
    flagging steps that contain padding (all-real steps skip the masking
    math).  Both are ``None`` when every position is real.
    """
    if mask is None:
        return None, None
    mask = np.asarray(mask)
    if mask.shape != (t_steps, batch):
        raise ValueError(
            f"mask shape {mask.shape} does not match sequence ({t_steps}, {batch})")
    real = mask.astype(bool)
    if real.all():
        return None, None
    return mask.astype(dtype).reshape(t_steps, batch, 1), ~real.all(axis=1)


def gru_layer_forward(x_seq: Tensor, h0: Optional[Tensor],
                      w_ih: Tensor, w_hh: Tensor, b_ih: Tensor, b_hh: Tensor,
                      mask: Optional[np.ndarray] = None
                      ) -> Tuple[Tensor, Tensor]:
    """Whole-sequence GRU layer: one tape node for a whole ``(T, B, in)`` pass.

    The input projection for all timesteps runs as a single GEMM, the
    recurrence is a plain numpy loop saving gate activations, and the
    backward closure backpropagates through time analytically (numeric
    gradient checks and a step-wise oracle in the test suite pin the
    derivation).

    Parameters
    ----------
    x_seq:
        ``(T, batch, input)`` inputs for every step.
    h0:
        ``(batch, hidden)`` initial state; zeros when ``None``.
    mask:
        Optional ``(T, batch)`` array of 0/1; where 0 the previous hidden
        state is carried through.

    Returns
    -------
    out_seq:
        ``(T, batch, hidden)`` hidden states after every step (padding
        carries the previous state, so ``out_seq[-1]`` is each sequence's
        state at its true last token).
    h_last:
        ``(batch, hidden)`` final state, a cheap view node on ``out_seq``.
    """
    if x_seq.ndim != 3:
        raise ValueError(f"x_seq must be (T, batch, input), got {x_seq.shape}")
    t_steps, batch, _ = x_seq.shape
    hidden = w_hh.shape[0]
    two_h = 2 * hidden
    w_hh_d = w_hh.data
    dtype = x_seq.data.dtype
    if h0 is None:
        h0 = Tensor(np.zeros((batch, hidden), dtype=dtype))
    mask_f, padded = _sequence_mask(mask, t_steps, batch, dtype)

    # (a) hoisted input-to-hidden projection: one (T*B, in) @ (in, 3H) GEMM.
    # b_hh broadcasts into the same slab for the r/z gates; the candidate
    # gate needs gh_n = (h @ W_hn + b_hn) *separately* (it is scaled by r),
    # so b_hh's last third must stay out of gi.
    bias = b_ih.data.copy()
    bias[:two_h] += b_hh.data[:two_h]
    b_hh_n = b_hh.data[two_h:]
    gi = (x_seq.data.reshape(t_steps * batch, -1) @ w_ih.data
          + bias).reshape(t_steps, batch, 3 * hidden)

    # (b) recurrence: tight numpy loop with in-place ufuncs; the reset and
    # update gates activate as one (B, 2H) slab and everything the backward
    # needs is written straight into its save slot.
    hs = np.empty((t_steps + 1, batch, hidden), dtype=dtype)  # hs[t] = h_{t-1}
    hs[0] = h0.data
    rzs = np.empty((t_steps, batch, two_h), dtype=dtype)
    cands = np.empty((t_steps, batch, hidden), dtype=dtype)
    gh_news = np.empty_like(cands)
    gh = np.empty((batch, 3 * hidden), dtype=dtype)
    tmp = np.empty((batch, hidden), dtype=dtype)
    for t in range(t_steps):
        h_prev = hs[t]
        gi_t = gi[t]
        np.matmul(h_prev, w_hh_d, out=gh)
        rz = rzs[t]
        np.add(gi_t[:, :two_h], gh[:, :two_h], out=rz)
        _sigmoid_(rz)
        reset = rz[:, :hidden]
        update = rz[:, hidden:]
        gh_n = gh_news[t]
        np.add(gh[:, two_h:], b_hh_n, out=gh_n)
        candidate = cands[t]
        np.multiply(reset, gh_n, out=candidate)
        candidate += gi_t[:, two_h:]
        np.tanh(candidate, out=candidate)
        new_h = hs[t + 1]
        # h' = (1-z)*n + z*h = n + z*(h - n)
        np.subtract(h_prev, candidate, out=tmp)
        tmp *= update
        np.add(candidate, tmp, out=new_h)
        if mask_f is not None and padded[t]:
            # masked h' = h + m*(h' - h): carry the previous state through
            new_h -= h_prev
            new_h *= mask_f[t]
            new_h += h_prev

    parents = (x_seq, h0, w_ih, w_hh, b_ih, b_hh)
    out_seq = Tensor._make(hs[1:], parents, "gru_layer")
    if out_seq.requires_grad:

        def backward(grad):
            # (c) whole-layer BPTT with the hand-derived per-step gradient.
            # Everything that does not depend on the running dh — the local
            # gate-derivative factors — is precomputed as (T, B, H) slabs in
            # a handful of big ufunc calls, so the sequential loop is just
            # the recurrent matmul plus a few multiplies (per-call overhead
            # is what dominates at these sizes, not FLOPs).
            gdtype = grad.dtype
            resets = rzs[:, :, :hidden]
            updates = rzs[:, :, hidden:]
            big = np.empty((t_steps, batch, hidden), dtype=gdtype)
            # n_fac = 1 - n^2  (dn_pre = dh*(1-z) * n_fac)
            n_fac = np.empty_like(big)
            np.multiply(cands, cands, out=n_fac)
            np.subtract(1.0, n_fac, out=n_fac)
            # z_fac = (h_prev - n) * z*(1-z)  (dz_pre = dh * z_fac)
            z_fac = np.empty_like(big)
            np.subtract(hs[:t_steps], cands, out=z_fac)
            np.subtract(1.0, updates, out=big)
            big *= updates
            z_fac *= big
            # r_fac = gh_n * r*(1-r)  (dr_pre = dn_pre * r_fac)
            r_fac = np.empty_like(big)
            np.subtract(1.0, resets, out=big)
            big *= resets
            np.multiply(gh_news, big, out=r_fac)

            dh = np.zeros((batch, hidden), dtype=gdtype)
            d_gi = np.empty((t_steps, batch, 3 * hidden), dtype=gdtype)
            d_gh = np.empty_like(d_gi)
            buf = np.empty((batch, hidden), dtype=gdtype)
            # One contiguous copy beats T strided-B GEMMs.
            w_hh_t = np.ascontiguousarray(w_hh_d.T)
            for t in range(t_steps - 1, -1, -1):
                dh += grad[t]
                if mask_f is not None and padded[t]:
                    m = mask_f[t]
                    dh_carry = dh * (1.0 - m)
                    dh *= m
                else:
                    dh_carry = None
                d_gi_t = d_gi[t]
                dr_pre = d_gi_t[:, :hidden]
                dz_pre = d_gi_t[:, hidden:two_h]
                dn_pre = d_gi_t[:, two_h:]
                # buf = dh*z: both the (1-z) complement and the direct
                # h_{t-1} term of the recurrence.
                np.multiply(dh, updates[t], out=buf)
                np.subtract(dh, buf, out=dn_pre)
                dn_pre *= n_fac[t]
                np.multiply(dh, z_fac[t], out=dz_pre)
                np.multiply(dn_pre, r_fac[t], out=dr_pre)
                # d_gh = [dr_pre, dz_pre, dn_pre * r]
                d_gh_t = d_gh[t]
                d_gh_t[:, :two_h] = d_gi_t[:, :two_h]
                np.multiply(dn_pre, resets[t], out=d_gh_t[:, two_h:])
                # dh_{t-1} = dh*z + d_gh @ W_hh^T (+ masked carry)
                np.matmul(d_gh_t, w_hh_t, out=dh)
                dh += buf
                if dh_carry is not None:
                    dh += dh_carry
            flat_d_gi = d_gi.reshape(t_steps * batch, 3 * hidden)
            flat_d_gh = d_gh.reshape(t_steps * batch, 3 * hidden)
            if x_seq.requires_grad:
                x_seq._accumulate(
                    (flat_d_gi @ w_ih.data.T).reshape(x_seq.shape))
            if h0.requires_grad:
                h0._accumulate(dh)
            if w_ih.requires_grad:
                w_ih._accumulate(
                    x_seq.data.reshape(t_steps * batch, -1).T @ flat_d_gi)
            if w_hh.requires_grad:
                w_hh._accumulate(
                    hs[:t_steps].reshape(t_steps * batch, hidden).T
                    @ flat_d_gh)
            if b_ih.requires_grad:
                b_ih._accumulate(flat_d_gi.sum(axis=0))
            if b_hh.requires_grad:
                b_hh._accumulate(flat_d_gh.sum(axis=0))

        out_seq._backward = backward
    return out_seq, out_seq[-1]


class GRUCell(Module):
    """One GRU layer's parameters, gate weights concatenated per input.

    :class:`GRU` runs them through :func:`gru_layer_forward`; the cell
    itself has no forward.
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        # Columns are ordered [reset | update | new].
        self.w_ih = Parameter(init.xavier_uniform(rng, (input_size, 3 * hidden_size)))
        self.w_hh = Parameter(np.concatenate(
            [init.orthogonal(rng, (hidden_size, hidden_size)) for _ in range(3)],
            axis=1,
        ))
        self.b_ih = Parameter(init.zeros((3 * hidden_size,)))
        self.b_hh = Parameter(init.zeros((3 * hidden_size,)))


class RecurrentStack(Module):
    """Multi-layer recurrent stack over ``(T, batch, input)`` sequences.

    The one stack loop shared by :class:`GRU` and :class:`LSTM`: it builds
    one cell per layer, applies dropout to the inputs of layers after the
    first and runs each layer as one tape node.  A subclass supplies
    ``cell_class``, :meth:`initial_state` and :meth:`_layer`, the call to
    its layer kernel.

    Parameters
    ----------
    input_size, hidden_size, num_layers:
        Architecture; the paper defaults to ``hidden_size=256`` and
        ``num_layers=3``.
    dropout:
        Dropout applied to the inputs of layers after the first
        (standard stacked-RNN regularization); inactive in eval mode.
    """

    cell_class: type

    def __init__(self, input_size: int, hidden_size: int, num_layers: int = 1,
                 dropout: float = 0.0, rng: Optional[np.random.Generator] = None):
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        rng = rng or np.random.default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self.cells = [
            self.cell_class(input_size if layer == 0 else hidden_size,
                            hidden_size, rng=rng)
            for layer in range(num_layers)
        ]
        self.dropout = Dropout(dropout, rng=rng)

    def initial_state(self, batch_size: int) -> list:  # pragma: no cover
        """Zero state per layer for a batch of ``batch_size``."""
        raise NotImplementedError

    def _layer(self, cell, x_seq, state, mask):  # pragma: no cover
        """Run one layer's kernel; returns ``(out_seq, final state)``."""
        raise NotImplementedError

    def forward(self, x_seq: Tensor, h0: Optional[list] = None,
                mask: Optional[np.ndarray] = None) -> Tuple[Tensor, list]:
        """Run the stack over a whole ``(T, batch, input)`` sequence.

        Parameters
        ----------
        x_seq:
            ``(T, batch, input_size)`` inputs, ``T >= 1``.
        h0:
            Initial state per layer (see :meth:`initial_state`); zeros
            when omitted.
        mask:
            Optional ``(T, batch)`` array of 0/1; where 0, the previous
            state is carried through (padding).

        Returns
        -------
        out_seq:
            ``(T, batch, hidden)`` top-layer hidden states.
        state:
            Final state per layer.
        """
        if x_seq.ndim != 3 or x_seq.shape[0] < 1:
            raise ValueError(f"{type(self).__name__}.forward requires a "
                             "(T, batch, input) tensor with T >= 1, got "
                             f"shape {x_seq.shape}")
        batch = x_seq.shape[1]
        state = list(h0) if h0 is not None else self.initial_state(batch)
        if len(state) != self.num_layers:
            raise ValueError(
                f"h0 has {len(state)} layers, expected {self.num_layers}")
        layer_input = x_seq
        for layer, cell in enumerate(self.cells):
            if layer > 0:
                layer_input = self.dropout(layer_input)
            layer_input, state[layer] = self._layer(
                cell, layer_input, state[layer], mask)
        return layer_input, state


class GRU(RecurrentStack):
    """Multi-layer GRU; the state is one ``(batch, hidden)`` tensor per layer."""

    cell_class = GRUCell

    def initial_state(self, batch_size: int) -> List[Tensor]:
        return [Tensor(np.zeros((batch_size, self.hidden_size)))
                for _ in range(self.num_layers)]

    def _layer(self, cell, x_seq, h, mask):
        return gru_layer_forward(x_seq, h, cell.w_ih, cell.w_hh,
                                 cell.b_ih, cell.b_hh, mask=mask)
