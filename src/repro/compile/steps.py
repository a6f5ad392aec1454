"""Compiled step bodies — every function here runs inside the Euler loop.

ALLOCATION-FREE ZONE.  These functions execute once per solver step on
the serving hot path; all outputs go into preallocated
:class:`~repro.compile.arena.Arena` buffers via ``out=`` ufunc forms,
``np.copyto`` and ``np.matmul(..., out=)``.  Array constructors
(``np.empty`` / ``np.zeros`` / ``np.ones`` / ``np.full``), as well as
``np.concatenate`` / ``np.pad`` / ``np.ascontiguousarray``, are banned
in this module — lint rule CMP001 enforces the ban statically, and
``tests/test_compile.py`` asserts zero constructor calls per step at
runtime.  Anything that must allocate (binding, plane precomputation,
the outer non-loop stages) belongs in :mod:`repro.compile.plan`.

Every activation is channels-last, (N, H, W, C): a pointwise conv is
one flat (N·H·W, C) GEMM, a depthwise conv one einsum whose inner loop
runs along a whole OW·C output row, and the MHSA token view a plain
reshape.

The math mirrors the reference kernels pass for pass — fused
scale-shift-ReLU is the folded BN→ReLU pair, the softmax/LayerNorm
in-place sequences follow the reference composites — so results stay
within 1e-6 of the ``reference`` backend (float64 throughout, pinned by
the parity suite).

The fixed-point plan runs the same conv bodies over integer-valued
floats and closes each rounding site with an epilogue below
(:func:`round_site`, :func:`bn_site_relu`, :func:`euler_site`):
``rint`` is the executor's round-half-even and ``clip`` its
saturation, so the plan matches ``QuantizedODENetExecutor.run`` bit
for bit.
"""

from __future__ import annotations

import numpy as np


def scale_shift_relu(x, scale, shift, out, scratch=None):
    """``relu(x * scale + shift)`` — a folded BN→ReLU pair, 3 passes.

    *out* may be the strided interior view of a zero-bordered conv
    canvas, so the producer fills the next conv's padded input
    directly; then the scale and shift passes run in the contiguous
    *scratch* and only the ReLU pass writes the canvas.
    """
    tmp = out if scratch is None else scratch
    np.multiply(x, scale, out=tmp)
    np.add(tmp, shift, out=tmp)
    np.maximum(tmp, 0.0, out=out)
    return out


def relu(x, out):
    """``relu(x)`` in one pass — a BN→ReLU pair whose scale/shift were
    folded into the *producing* conv's weights and plane at bind time."""
    np.maximum(x, 0.0, out=out)
    return out


def state_add(z, f):
    """``z += f`` in place — the Euler update once the step size ``h``
    has been folded into the dynamics' final conv at bind time."""
    np.add(z, f, out=z)
    return z


def round_site(x, lo, hi):
    """Close a fixed-point site in place: round half-to-even onto the
    raw grid, then saturate into ``[lo, hi]``."""
    np.rint(x, out=x)
    np.clip(x, lo, hi, out=x)
    return x


def bn_site_relu(x, scale, shift, lo, hi, acc, out):
    """A fixed-point BN site, then ReLU, into *out*.

    ``clip(rint(x * scale)) + shift`` saturated, as the executor's
    ``fixed_bn_apply``; the final saturation and the ReLU fuse into one
    ``clip(·, 0, hi)`` because ``lo <= 0``.  *acc* is contiguous
    scratch (it may be *out* itself); *out* may be a canvas interior.
    """
    np.multiply(x, scale, out=acc)
    round_site(acc, lo, hi)
    np.add(acc, shift, out=acc)
    np.clip(acc, 0.0, hi, out=out)
    return out


def euler_site(z, f, h, lo, hi, acc):
    """The fixed-point Euler update ``z = sat(z + site(h * f))`` in
    place, *h* the pre-scaled step constant and *acc* scratch."""
    np.multiply(f, h, out=acc)
    round_site(acc, lo, hi)
    np.add(z, acc, out=z)
    np.clip(z, lo, hi, out=z)
    return z


def depthwise(rows, weight, out):
    """Stride-1 depthwise conv as one einsum over output rows.

    *rows* is the (N, OH, KH, KW, OW·C) row view of the padded canvas
    (:func:`~repro.kernels.shapes.as_strided_rows_nhwc`), *weight* the
    (KH, KW, C) kernel tiled OW times along its last axis and *out* the
    (N, OH, OW·C) view of the (N, OH, OW, C) destination.  The einsum's
    inner loop is a unit-stride multiply-accumulate over a whole output
    row; each output still sums its KH·KW taps in (i, j) order.
    """
    np.einsum("nhijk,ijk->nhk", rows, weight, out=out)
    return out


def pointwise_affine(x2d, wmat_t, plane, out, out2d):
    """1x1 conv as one flat channel GEMM plus a fused additive plane.

    ``out[p, :] = x[p, :] @ wmat_t + plane`` over every pixel ``p`` of
    the batch — *plane* carries the conv bias and, inside the Euler
    loop, the precomputed ``t_i * M`` time term, so the whole
    time-concat conv is one GEMM and one add.  *x2d* / *out2d* are the
    (N·H·W, C) / (N·H·W, F) views of the source and destination arena
    buffers, precomputed at bind time.
    """
    np.matmul(x2d, wmat_t, out=out2d)
    np.add(out, plane, out=out)
    return out


def dense_conv_cols(patches, colbuf, col2d, wmat_t, out2d, plane, out):
    """Dense k×k conv as explicit im2col + one flat GEMM, arena-buffered.

    *patches* is the (N, OH, OW, KH, KW, C) view of the padded canvas
    and *colbuf* its contiguous copy, whose (N·OH·OW, KH·KW·C) view
    *col2d* meets *wmat_t* (KH·KW·C, F) in one GEMM written straight
    into *out* (N, OH, OW, F) through *out2d*; then one fused plane add.
    """
    np.copyto(colbuf, patches)
    np.matmul(col2d, wmat_t, out=out2d)
    np.add(out, plane, out=out)
    return out


# ----------------------------------------------------------------------
# MHSA — the bottleneck dynamics' attention, fully arena-buffered
# ----------------------------------------------------------------------

def mhsa_project(p, b):
    """Fused Q/K/V projections of the tokens into head layout.

    ``b.tok`` (B, N, D) is the token view of the down-projection's
    channels-last output — a plain reshape — or, with an absolute
    position table, an arena buffer the table is added into from that
    view ``b.ytok``.  Writes ``b.qf/kf/vf`` (B, N, D) and the head-split
    contiguous copies ``b.q4/k4/v4`` (B, heads, N, d_h) via the
    bind-time views ``b.qf_h/kf_h/vf_h``.
    """
    if p.abs_table is not None:
        np.add(b.ytok, p.abs_table, out=b.tok)
    np.matmul(b.tok, p.w_q, out=b.qf)
    np.matmul(b.tok, p.w_k, out=b.kf)
    np.matmul(b.tok, p.w_v, out=b.vf)
    np.copyto(b.q4, b.qf_h)
    np.copyto(b.k4, b.kf_h)
    np.copyto(b.v4, b.vf_h)
    return b.q4


def mhsa_attend(p, b):
    """Scores → activation → per-head values, all in arena buffers.

    Follows the reference op order: QK^T logits (via the bind-time
    transposed view ``b.k4t``), relative-position correction,
    1/sqrt(d_h) scale, then softmax (shift/exp/normalise in place) or
    ReLU scores, then the value GEMM into ``b.ph``.
    """
    np.matmul(b.q4, b.k4t, out=b.lg)
    if p.rel_t is not None:
        np.matmul(b.q4, p.rel_t, out=b.rl)
        np.add(b.lg, b.rl, out=b.lg)
    np.multiply(b.lg, p.inv_sqrt_dh, out=b.lg)
    if p.activation == "softmax":
        np.max(b.lg, axis=-1, keepdims=True, out=b.mx)
        np.subtract(b.lg, b.mx, out=b.lg)
        np.exp(b.lg, out=b.lg)
        np.sum(b.lg, axis=-1, keepdims=True, out=b.mx)
        np.divide(b.lg, b.mx, out=b.lg)
    else:
        np.maximum(b.lg, 0.0, out=b.lg)
    np.matmul(b.lg, b.v4, out=b.ph)
    return b.ph


def mhsa_merge(p, b, out):
    """Concat heads (via the bind-time views ``b.cat4`` / ``b.ph_t``)
    and apply the output LayerNorm in place (reference composite).

    ``b.cat`` is the token view of the channels-last destination *out*,
    so the merged tokens are already the block's feature map.
    """
    np.copyto(b.cat4, b.ph_t)
    if p.ln is not None:
        ln_w, ln_b, ln_eps = p.ln
        d = b.cat.shape[-1]
        # np.mean's own sum-then-divide, minus its Python wrapper
        np.add.reduce(b.cat, axis=-1, keepdims=True, out=b.mu)
        np.true_divide(b.mu, d, out=b.mu)
        np.subtract(b.cat, b.mu, out=b.cat)
        np.multiply(b.cat, b.cat, out=b.sq)
        np.add.reduce(b.sq, axis=-1, keepdims=True, out=b.mu)
        np.true_divide(b.mu, d, out=b.mu)
        np.add(b.mu, ln_eps, out=b.mu)
        np.power(b.mu, -0.5, out=b.mu)
        np.multiply(b.cat, b.mu, out=b.cat)
        if ln_w is not None:
            np.multiply(b.cat, ln_w, out=b.cat)
            np.add(b.cat, ln_b, out=b.cat)
    return out
