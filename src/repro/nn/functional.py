"""Graph-free numpy forwards for eval-mode layers.

What remains here is what more than one inference consumer shares:

* the multi-head self-attention forward (:func:`mhsa2d_eval` /
  :func:`mhsa2d_forward`) — the FPGA accelerator's software reference
  (:class:`~repro.fpga.MHSAAccelerator`, Table IX "CPU" column) and the
  head-importance analysis;
* the BatchNorm and relative-position packing
  (:func:`batchnorm2d_params`, :func:`mhsa_rel_table`) the float
  compiler (:mod:`repro.compile.ir`) folds from.

Every function routes its array math through :mod:`repro.kernels` — the
same dispatchable kernels the autograd ops call — so a graph-free
forward under the ``reference`` backend is bit-identical to the autograd
forward of an eval-mode module (``tests/test_nn_attention.py`` pins
this for the attention forward), and the ``fused`` backend accelerates
both paths consistently.
"""

from __future__ import annotations

import numpy as np

from .. import kernels


def batchnorm2d_params(bn):
    """Pack an eval-mode :class:`~repro.nn.BatchNorm2d` into apply-ready
    arrays ``(mean, inv_std, weight, bias)`` (weight/bias may be None).

    ``inv_std`` is computed exactly as the module's forward does
    (``(var + eps) ** -0.5`` on the float64 running buffer).
    """
    mean = bn.running_mean.reshape(1, -1, 1, 1)
    var = bn.running_var.reshape(1, -1, 1, 1)
    inv = (var + np.asarray(bn.eps, dtype=var.dtype)) ** -0.5
    w = None if bn.weight is None else bn.weight.data.reshape(1, -1, 1, 1)
    b = None if bn.bias is None else bn.bias.data.reshape(1, -1, 1, 1)
    return mean, inv, w, b


# ----------------------------------------------------------------------
# multi-head self-attention — THE single graph-free implementation
# ----------------------------------------------------------------------

def mhsa2d_forward(x, w_q, w_k, w_v, heads, *, rel_table=None, abs_table=None,
                   attention_activation="softmax", ln=None, head_mask=None):
    """BoTNet-style MHSA over an NCHW array (paper Eqs. 15-17), graph-free.

    Parameters mirror :class:`~repro.nn.MHSA2d`: ``rel_table`` is the
    fused (heads, N, D_h) relative-position table, ``abs_table`` the
    (N, D) sinusoidal table (at most one may be given), ``ln`` the
    optional output LayerNorm as a ``(weight, bias, eps)`` triple (with
    ``weight``/``bias`` None for a non-affine norm).  ``head_mask`` is a
    length-``heads`` 0/1 vector applied to per-head outputs before
    concatenation (used by the head-importance analysis).

    The op sequence matches ``MHSA2d.forward`` exactly (projections,
    score and value GEMMs, softmax/ReLU scores — all dispatched through
    :mod:`repro.kernels`), so for an eval-mode module this returns the
    autograd forward bit-for-bit under the ``reference`` backend.
    """
    b, d, h, w = x.shape
    n = h * w
    dh = d // heads
    tokens = x.reshape(b, d, n).transpose(0, 2, 1)  # (B, N, D)
    if abs_table is not None:
        tokens = tokens + abs_table.astype(x.dtype)

    def split(t):
        return t.reshape(b, n, heads, dh).transpose(0, 2, 1, 3)

    q = split(kernels.matmul(tokens, w_q))
    k = split(kernels.matmul(tokens, w_k))
    v = split(kernels.matmul(tokens, w_v))

    logits = kernels.matmul(q, k.transpose(0, 1, 3, 2))  # (B, heads, N, N)
    if rel_table is not None:
        logits = logits + kernels.matmul(q, rel_table.transpose(0, 2, 1))
    logits = logits * np.asarray(1.0 / np.sqrt(dh), dtype=logits.dtype)

    if attention_activation == "softmax":
        attn = kernels.softmax(logits, axis=-1)
    else:
        attn = kernels.relu(logits)

    per_head = kernels.matmul(attn, v)  # (B, heads, N, Dh)
    if head_mask is not None:
        per_head = per_head * np.asarray(
            head_mask, dtype=per_head.dtype
        ).reshape(1, heads, 1, 1)
    out = per_head.transpose(0, 2, 1, 3).reshape(b, n, d)  # concat heads
    if ln is not None:
        ln_weight, ln_bias, ln_eps = ln
        out = kernels.layernorm(out, ln_weight, ln_bias, eps=ln_eps)
    return out.transpose(0, 2, 1).reshape(b, d, h, w)


def mhsa_rel_table(mhsa):
    """Fused (heads, N, D_h) relative-position table of an MHSA module,
    numerically identical to ``mhsa.rel.table()``."""
    rel = mhsa.rel
    return (
        rel.rel_h.data[:, :, None, :] + rel.rel_w.data[:, None, :, :]
    ).reshape(rel.heads, rel.height * rel.width, rel.dim_head)


def mhsa2d_eval(mhsa, x, head_mask=None):
    """Graph-free forward of an :class:`~repro.nn.MHSA2d` module.

    Reads the module's current parameters on every call (safe during
    training).
    """
    norm = mhsa.norm
    kwargs = dict(
        rel_table=mhsa_rel_table(mhsa) if mhsa.pos_enc == "relative" else None,
        abs_table=mhsa.abs.table if mhsa.pos_enc == "absolute" else None,
        attention_activation=mhsa.attention_activation,
        head_mask=head_mask,
        ln=None if norm is None else (
            None if norm.weight is None else norm.weight.data,
            None if norm.bias is None else norm.bias.data,
            norm.eps,
        ),
    )
    return mhsa2d_forward(
        np.asarray(x), mhsa.w_q.data, mhsa.w_k.data, mhsa.w_v.data,
        mhsa.heads, **kwargs,
    )
