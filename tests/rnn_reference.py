"""Step-wise GRU/LSTM reference: the oracle for the fused layer kernels.

This is the implementation the sequence-fused kernels replaced: one
hand-derived tape node per cell step, a Python loop over time and
layers, and padded steps carried through with a constant-mask select.
It shares nothing with :func:`~repro.nn.rnn.gru_layer_forward` or
:func:`~repro.nn.lstm.lstm_layer_forward` except the parameter layout
(:class:`~repro.nn.GRUCell` / :class:`~repro.nn.LSTMCell`), so the
parity tests compare two independent derivations.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.nn import LSTM, Tensor
from repro.nn.tensor import _unbroadcast


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Clipping keeps exp() finite for huge gate inputs.
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def where_const(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Select between two tensors with a constant boolean mask."""
    condition = np.asarray(condition, dtype=bool)
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    out = Tensor._make(np.where(condition, a.data, b.data), (a, b), "where")
    if out.requires_grad:

        def backward(grad):
            if a.requires_grad:
                a._accumulate(_unbroadcast(grad * condition, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(grad * (~condition), b.shape))

        out._backward = backward
    return out


def gru_cell_forward(x: Tensor, h: Tensor, w_ih: Tensor, w_hh: Tensor,
                     b_ih: Tensor, b_hh: Tensor) -> Tensor:
    """One GRU step as a single tape node with the analytic backward."""
    hidden = h.data.shape[1]
    gi = x.data @ w_ih.data + b_ih.data
    gh = h.data @ w_hh.data + b_hh.data
    reset = _sigmoid(gi[:, :hidden] + gh[:, :hidden])
    update = _sigmoid(gi[:, hidden:2 * hidden] + gh[:, hidden:2 * hidden])
    gh_n = gh[:, 2 * hidden:]
    candidate = np.tanh(gi[:, 2 * hidden:] + reset * gh_n)
    new_h = (1.0 - update) * candidate + update * h.data

    parents = (x, h, w_ih, w_hh, b_ih, b_hh)
    out = Tensor._make(new_h, parents, "gru_cell")
    if out.requires_grad:

        def backward(grad):
            d_update = grad * (h.data - candidate)
            d_candidate = grad * (1.0 - update)
            dn_pre = d_candidate * (1.0 - candidate ** 2)
            d_reset = dn_pre * gh_n
            dz_pre = d_update * update * (1.0 - update)
            dr_pre = d_reset * reset * (1.0 - reset)
            d_gi = np.concatenate([dr_pre, dz_pre, dn_pre], axis=1)
            d_gh = np.concatenate([dr_pre, dz_pre, dn_pre * reset], axis=1)
            if x.requires_grad:
                x._accumulate(d_gi @ w_ih.data.T)
            if h.requires_grad:
                h._accumulate(grad * update + d_gh @ w_hh.data.T)
            if w_ih.requires_grad:
                w_ih._accumulate(x.data.T @ d_gi)
            if w_hh.requires_grad:
                w_hh._accumulate(h.data.T @ d_gh)
            if b_ih.requires_grad:
                b_ih._accumulate(d_gi.sum(axis=0))
            if b_hh.requires_grad:
                b_hh._accumulate(d_gh.sum(axis=0))

        out._backward = backward
    return out


def lstm_cell_forward(x: Tensor, h: Tensor, c: Tensor,
                      w_ih: Tensor, w_hh: Tensor,
                      b_ih: Tensor, b_hh: Tensor) -> Tuple[Tensor, Tensor]:
    """One LSTM step returning ``(h', c')`` with an analytic backward."""
    hidden = h.data.shape[1]
    gates = x.data @ w_ih.data + b_ih.data + h.data @ w_hh.data + b_hh.data
    i_gate = _sigmoid(gates[:, :hidden])
    f_gate = _sigmoid(gates[:, hidden:2 * hidden])
    g_gate = np.tanh(gates[:, 2 * hidden:3 * hidden])
    o_gate = _sigmoid(gates[:, 3 * hidden:])
    new_c = f_gate * c.data + i_gate * g_gate
    tanh_c = np.tanh(new_c)
    new_h = o_gate * tanh_c

    parents = (x, h, c, w_ih, w_hh, b_ih, b_hh)
    out_h = Tensor._make(new_h, parents, "lstm_cell_h")
    out_c = Tensor._make(new_c, parents, "lstm_cell_c")

    if out_h.requires_grad or out_c.requires_grad:
        # Both outputs share parents; autograd runs each node's backward
        # once, so each closure pushes its own contribution.

        def push(grad_h, grad_c_in):
            grad_c_total = grad_c_in + grad_h * o_gate * (1.0 - tanh_c ** 2)
            d_o = grad_h * tanh_c
            d_f = grad_c_total * c.data
            d_i = grad_c_total * g_gate
            d_g = grad_c_total * i_gate
            di_pre = d_i * i_gate * (1.0 - i_gate)
            df_pre = d_f * f_gate * (1.0 - f_gate)
            dg_pre = d_g * (1.0 - g_gate ** 2)
            do_pre = d_o * o_gate * (1.0 - o_gate)
            d_gates = np.concatenate([di_pre, df_pre, dg_pre, do_pre], axis=1)
            if x.requires_grad:
                x._accumulate(d_gates @ w_ih.data.T)
            if h.requires_grad:
                h._accumulate(d_gates @ w_hh.data.T)
            if c.requires_grad:
                c._accumulate(grad_c_total * f_gate)
            if w_ih.requires_grad:
                w_ih._accumulate(x.data.T @ d_gates)
            if w_hh.requires_grad:
                w_hh._accumulate(h.data.T @ d_gates)
            if b_ih.requires_grad:
                b_ih._accumulate(d_gates.sum(axis=0))
            if b_hh.requires_grad:
                b_hh._accumulate(d_gates.sum(axis=0))

        def backward_h(grad):
            push(grad, np.zeros_like(grad))

        def backward_c(grad):
            push(np.zeros_like(grad), grad)

        out_h._backward = backward_h
        out_c._backward = backward_c
    return out_h, out_c


def cell_step(cell, x: Tensor, *state: Tensor):
    """One step of a ``GRUCell`` (``state = (h,)``) or ``LSTMCell``
    (``state = (h, c)``) through the reference kernels."""
    kernel = gru_cell_forward if len(state) == 1 else lstm_cell_forward
    return kernel(x, *state, cell.w_ih, cell.w_hh, cell.b_ih, cell.b_hh)


def stepwise_forward(rnn, steps: Sequence[Tensor], h0: Optional[list] = None,
                     mask: Optional[np.ndarray] = None
                     ) -> Tuple[List[Tensor], list]:
    """The per-timestep stack loop over a ``GRU`` or ``LSTM`` module.

    ``steps`` is one ``(batch, input)`` tensor per timestep.  Returns the
    top layer's per-step outputs and the final state per layer (a tensor
    per layer for the GRU, an ``(h, c)`` tuple for the LSTM), like the
    module's own ``forward``.  Dropout applies to each step's input of
    every layer after the first.
    """
    lstm = isinstance(rnn, LSTM)
    batch = steps[0].shape[0]
    state = list(h0) if h0 is not None else rnn.initial_state(batch)
    outputs: List[Tensor] = []
    for t, x in enumerate(steps):
        step_mask = None
        if mask is not None:
            row = np.asarray(mask[t], dtype=bool)
            if not row.all():
                step_mask = row.reshape(batch, 1)
        layer_input = x
        for layer, cell in enumerate(rnn.cells):
            if layer > 0:
                layer_input = rnn.dropout(layer_input)
            prev = state[layer] if lstm else (state[layer],)
            new = cell_step(cell, layer_input, *prev)
            new = new if lstm else (new,)
            if step_mask is not None:
                new = tuple(where_const(step_mask, n, p)
                            for n, p in zip(new, prev))
            state[layer] = new if lstm else new[0]
            layer_input = new[0]
        outputs.append(layer_input)
    return outputs, state
