"""Multi-layer LSTM over whole sequences (hand-derived BPTT backward).

The paper chooses GRU over LSTM because it is "as good as LSTM in
sequence modeling tasks, while much more efficient to compute"
(Section V-B, citing Chung et al. 2014).  We provide the LSTM anyway so
that claim can be tested: :class:`~repro.core.encoder_decoder.ModelConfig`
accepts ``rnn_type="lstm"`` and the ablation is one config flag away.

Gate formulation (PyTorch order i, f, g, o):

    i = sigmoid(W_ii x + b_ii + W_hi h + b_hi)
    f = sigmoid(W_if x + b_if + W_hf h + b_hf)
    g = tanh   (W_ig x + b_ig + W_hg h + b_hg)
    o = sigmoid(W_io x + b_io + W_ho h + b_ho)
    c' = f * c + i * g
    h' = o * tanh(c')

Like the GRU (see :mod:`repro.nn.rnn`), each layer's whole sequence is
one tape node (:func:`lstm_layer_forward`) with an analytic BPTT
backward; numeric gradient checks and a step-wise oracle in the test
suite pin the derivation.  :meth:`LSTM.forward` is the one execution
path, used with ``T = 1`` for a decoding step, and :class:`LSTMCell`
holds one layer's parameters.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from . import init
from .layers import Dropout
from .module import Module, Parameter
from .rnn import _sequence_mask, _sigmoid_
from .tensor import Tensor


def lstm_layer_forward(x_seq: Tensor, h0: Optional[Tensor], c0: Optional[Tensor],
                       w_ih: Tensor, w_hh: Tensor, b_ih: Tensor, b_hh: Tensor,
                       mask: Optional[np.ndarray] = None
                       ) -> Tuple[Tensor, Tensor, Tensor]:
    """Whole-sequence LSTM layer; the LSTM sibling of
    :func:`~repro.nn.rnn.gru_layer_forward`.

    One ``(T*B, in) @ (in, 4H)`` GEMM hoists the input projection, the
    recurrence runs as a tight numpy loop saving gate activations, and a
    single hand-derived BPTT closure backpropagates the whole layer.

    Returns ``(out_seq, h_last, c_last)``.  ``h_last`` is a view node on
    ``out_seq`` (padding carries states, so ``out_seq[-1]`` is the state at
    each sequence's true last token).  ``c_last`` is a lightweight child
    node of ``out_seq`` whose gradient is staged into the shared BPTT pass,
    so using any combination of the three outputs costs one backward sweep.
    """
    if x_seq.ndim != 3:
        raise ValueError(f"x_seq must be (T, batch, input), got {x_seq.shape}")
    t_steps, batch, _ = x_seq.shape
    hidden = w_hh.shape[0]
    two_h, three_h = 2 * hidden, 3 * hidden
    w_hh_d = w_hh.data
    dtype = x_seq.data.dtype
    if h0 is None:
        h0 = Tensor(np.zeros((batch, hidden), dtype=dtype))
    if c0 is None:
        c0 = Tensor(np.zeros((batch, hidden), dtype=dtype))
    mask_f, padded = _sequence_mask(mask, t_steps, batch, dtype)

    # Hoisted input projection; both biases fold into the same slab because
    # the gate pre-activation is gi + b_ih + gh + b_hh.
    gi = (x_seq.data.reshape(t_steps * batch, -1) @ w_ih.data
          + (b_ih.data + b_hh.data)).reshape(t_steps, batch, 4 * hidden)

    # Recurrence with in-place ufuncs; gates_seq[t] ends up holding the
    # *activated* i|f|g|o slab the backward needs.
    hs = np.empty((t_steps + 1, batch, hidden), dtype=dtype)  # hs[t] = h_{t-1}
    cs = np.empty_like(hs)
    hs[0] = h0.data
    cs[0] = c0.data
    gates_seq = np.empty((t_steps, batch, 4 * hidden), dtype=dtype)
    tanh_cs = np.empty((t_steps, batch, hidden), dtype=dtype)  # pre-mask
    tmp = np.empty((batch, hidden), dtype=dtype)
    for t in range(t_steps):
        h_prev, c_prev = hs[t], cs[t]
        gates = gates_seq[t]
        np.matmul(h_prev, w_hh_d, out=gates)
        gates += gi[t]
        _sigmoid_(gates[:, :two_h])                    # i | f
        g_slab = gates[:, two_h:three_h]
        np.tanh(g_slab, out=g_slab)                    # g
        _sigmoid_(gates[:, three_h:])                  # o
        i_gate = gates[:, :hidden]
        f_gate = gates[:, hidden:two_h]
        o_gate = gates[:, three_h:]
        new_c = cs[t + 1]
        np.multiply(f_gate, c_prev, out=new_c)
        np.multiply(i_gate, g_slab, out=tmp)
        new_c += tmp
        tanh_c = tanh_cs[t]
        np.tanh(new_c, out=tanh_c)
        new_h = hs[t + 1]
        np.multiply(o_gate, tanh_c, out=new_h)
        if mask_f is not None and padded[t]:
            # masked x' = x + m*(x' - x): padding carries state through
            m = mask_f[t]
            new_h -= h_prev
            new_h *= m
            new_h += h_prev
            new_c -= c_prev
            new_c *= m
            new_c += c_prev

    parents = (x_seq, h0, c0, w_ih, w_hh, b_ih, b_hh)
    out_seq = Tensor._make(hs[1:], parents, "lstm_layer")
    c_last = Tensor._make(cs[t_steps], (out_seq,), "lstm_layer_c")
    if out_seq.requires_grad:
        staged_dc = [None]  # grad from c_last, consumed by out_seq's BPTT

        def backward_c(grad):
            staged_dc[0] = grad
            # c_last runs before out_seq in reverse-topological order (it is
            # a child); seeding a zero grad guarantees out_seq's backward
            # fires even when nothing else consumed out_seq.
            out_seq._accumulate(np.zeros_like(out_seq.data))

        def backward(grad):
            # Local gate-derivative factors do not depend on the running
            # dh/dc, so they precompute as (T, B, H) slabs in a few big
            # ufunc calls; the sequential loop keeps only the recurrent
            # matmul and five multiplies.
            gdtype = grad.dtype
            i_gates = gates_seq[:, :, :hidden]
            f_gates = gates_seq[:, :, hidden:two_h]
            g_gates = gates_seq[:, :, two_h:three_h]
            o_gates = gates_seq[:, :, three_h:]
            big = np.empty((t_steps, batch, hidden), dtype=gdtype)
            # ot_fac = o*(1-tanh_c^2)  (dc_total = dc + dh * ot_fac)
            ot_fac = np.empty_like(big)
            np.multiply(tanh_cs, tanh_cs, out=ot_fac)
            np.subtract(1.0, ot_fac, out=ot_fac)
            ot_fac *= o_gates
            # do_fac = tanh_c * o*(1-o)  (do = dh * do_fac)
            do_fac = np.empty_like(big)
            np.subtract(1.0, o_gates, out=big)
            big *= o_gates
            np.multiply(tanh_cs, big, out=do_fac)
            # i_fac = g * i*(1-i)  (di = dc_total * i_fac)
            i_fac = np.empty_like(big)
            np.subtract(1.0, i_gates, out=big)
            big *= i_gates
            np.multiply(g_gates, big, out=i_fac)
            # f_fac = c_prev * f*(1-f)  (df = dc_total * f_fac)
            f_fac = np.empty_like(big)
            np.subtract(1.0, f_gates, out=big)
            big *= f_gates
            np.multiply(cs[:t_steps], big, out=f_fac)
            # g_fac = i * (1-g^2)  (dg = dc_total * g_fac)
            g_fac = np.empty_like(big)
            np.multiply(g_gates, g_gates, out=g_fac)
            np.subtract(1.0, g_fac, out=g_fac)
            g_fac *= i_gates

            dh = np.zeros((batch, hidden), dtype=gdtype)
            dc = staged_dc[0]
            staged_dc[0] = None
            if dc is None:
                dc = np.zeros((batch, hidden), dtype=gdtype)
            else:
                dc = dc.copy()  # mutated in place below
            d_gates_seq = np.empty((t_steps, batch, 4 * hidden), dtype=gdtype)
            buf = np.empty((batch, hidden), dtype=gdtype)
            # One contiguous copy beats T strided-B GEMMs.
            w_hh_t = np.ascontiguousarray(w_hh_d.T)
            for t in range(t_steps - 1, -1, -1):
                dh += grad[t]
                if mask_f is not None and padded[t]:
                    m = mask_f[t]
                    dh_carry = dh * (1.0 - m)
                    dh *= m
                    dc_carry = dc * (1.0 - m)
                    dc *= m
                else:
                    dh_carry = None
                d_gates = d_gates_seq[t]
                np.multiply(dh, do_fac[t], out=d_gates[:, three_h:])
                np.multiply(dh, ot_fac[t], out=buf)
                dc += buf  # dc is now dc_total
                np.multiply(dc, i_fac[t], out=d_gates[:, :hidden])
                np.multiply(dc, f_fac[t], out=d_gates[:, hidden:two_h])
                np.multiply(dc, g_fac[t], out=d_gates[:, two_h:three_h])
                # dh_{t-1} = d_gates @ W_hh^T; dc_{t-1} = dc_total * f
                np.matmul(d_gates, w_hh_t, out=dh)
                dc *= f_gates[t]
                if dh_carry is not None:
                    dh += dh_carry
                    dc += dc_carry
            flat = d_gates_seq.reshape(t_steps * batch, 4 * hidden)
            if x_seq.requires_grad:
                x_seq._accumulate((flat @ w_ih.data.T).reshape(x_seq.shape))
            if h0.requires_grad:
                h0._accumulate(dh)
            if c0.requires_grad:
                c0._accumulate(dc)
            if w_ih.requires_grad:
                w_ih._accumulate(
                    x_seq.data.reshape(t_steps * batch, -1).T @ flat)
            if w_hh.requires_grad:
                w_hh._accumulate(
                    hs[:t_steps].reshape(t_steps * batch, hidden).T @ flat)
            # The biases enter the same pre-activation sum, so they share
            # the summed gate gradient.
            if b_ih.requires_grad or b_hh.requires_grad:
                db = flat.sum(axis=0)
                if b_ih.requires_grad:
                    b_ih._accumulate(db)
                if b_hh.requires_grad:
                    b_hh._accumulate(db)

        out_seq._backward = backward
        c_last._backward = backward_c
    return out_seq, out_seq[-1], c_last


class LSTMCell(Module):
    """One LSTM layer's parameters, gate weights concatenated per input.

    :class:`LSTM` runs them through :func:`lstm_layer_forward`; the cell
    itself has no forward.
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_ih = Parameter(init.xavier_uniform(rng, (input_size, 4 * hidden_size)))
        self.w_hh = Parameter(np.concatenate(
            [init.orthogonal(rng, (hidden_size, hidden_size)) for _ in range(4)],
            axis=1,
        ))
        # Forget-gate bias of 1 is the classic stabilization.
        b = np.zeros(4 * hidden_size)
        b[hidden_size:2 * hidden_size] = 1.0
        self.b_ih = Parameter(b)
        self.b_hh = Parameter(init.zeros((4 * hidden_size,)))


class LSTM(Module):
    """Multi-layer LSTM over ``(T, batch, input)`` sequences; API mirrors
    :class:`GRU`.

    ``forward`` returns ``(out_seq, state)`` where ``state`` is a list of
    per-layer ``(h, c)`` tuples.  For interchangeability with the GRU in
    the encoder-decoder, :meth:`hidden_of` extracts only the ``h`` parts.
    """

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
            LSTMCell(input_size if layer == 0 else hidden_size, hidden_size,
                     rng=rng)
            for layer in range(num_layers)
        ]
        self.dropout = Dropout(dropout, rng=rng)

    def initial_state(self, batch_size: int) -> List[Tuple[Tensor, Tensor]]:
        return [(Tensor(np.zeros((batch_size, self.hidden_size))),
                 Tensor(np.zeros((batch_size, self.hidden_size))))
                for _ in range(self.num_layers)]

    def forward(
        self,
        x_seq: Tensor,
        h0: Optional[List[Tuple[Tensor, Tensor]]] = None,
        mask: Optional[np.ndarray] = None,
    ) -> Tuple[Tensor, List[Tuple[Tensor, Tensor]]]:
        """Run the stack over a whole ``(T, batch, input)`` sequence.

        Returns ``(out_seq, state)`` where ``out_seq`` is the top layer's
        ``(T, batch, hidden)`` output and ``state`` holds per-layer
        ``(h, c)`` finals.
        """
        if x_seq.ndim != 3 or x_seq.shape[0] < 1:
            raise ValueError("LSTM.forward requires a (T, batch, input) "
                             f"tensor with T >= 1, got shape {x_seq.shape}")
        batch = x_seq.shape[1]
        state = list(h0) if h0 is not None else self.initial_state(batch)
        if len(state) != self.num_layers:
            raise ValueError(
                f"h0 has {len(state)} layers, expected {self.num_layers}")
        layer_input = x_seq
        for layer, cell in enumerate(self.cells):
            if layer > 0:
                layer_input = self.dropout(layer_input)
            h_prev, c_prev = state[layer]
            layer_input, h_last, c_last = lstm_layer_forward(
                layer_input, h_prev, c_prev, cell.w_ih, cell.w_hh,
                cell.b_ih, cell.b_hh, mask=mask)
            state[layer] = (h_last, c_last)
        return layer_input, state

    @staticmethod
    def hidden_of(state: List[Tuple[Tensor, Tensor]]) -> List[Tensor]:
        """Extract the ``h`` component per layer (GRU-compatible shape)."""
        return [h for h, _ in state]
