"""Shared conv geometry helpers — the single home of conv/pool shape math.

Every consumer of the im2col-GEMM idiom (autograd conv ops, the eval
fast paths, the integer-domain fixed-point kernels, the FPGA design
estimators and the MAC counters) used to carry its own copy of the
padding and output-size arithmetic.  They all route through here now;
``tests/test_kernels.py`` pins the agreement.

This module must stay import-light (numpy only): it sits *below*
``repro.tensor`` in the layering so the autograd ops can use it without
creating an import cycle.
"""

from __future__ import annotations

import numpy as np


def conv_out_size(h, w, kh, kw, sh, sw, ph, pw, strict=True):
    """Output spatial size of a cross-correlation / pooling window.

    ``OH = (H + 2*PH - KH) // SH + 1`` (and likewise for width); raises
    ``ValueError`` when the window does not fit.  Static estimators
    (MAC counters, FPGA design studies) pass ``strict=False`` to get
    the raw formula even for degenerate geometries they merely walk
    past, matching the arithmetic they historically inlined.
    """
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    if strict and (oh <= 0 or ow <= 0):
        raise ValueError(
            f"conv output would be empty: input {h}x{w}, kernel {kh}x{kw}, "
            f"stride {sh}x{sw}, padding {ph}x{pw}"
        )
    return oh, ow


def pad_nchw(x, ph, pw, fill=0):
    """Zero-pad (or *fill*-pad) the two spatial axes of an NCHW array.

    ``fill`` defaults to 0 (convolution); max-pooling passes the
    dtype-specific minimum via :func:`pool_pad_value` so padding can
    never win the max.
    """
    if ph == 0 and pw == 0:
        return x
    if fill == 0:
        return np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    return np.pad(
        x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=fill
    )


def pool_pad_value(dtype):
    """The identity element of ``max`` for *dtype*: ``-inf`` for floats,
    the integer minimum for integer (fixed-point raw) arrays."""
    dtype = np.dtype(dtype)
    if np.issubdtype(dtype, np.floating):
        return -np.inf
    return np.iinfo(dtype).min


def conv_geometry(x_shape, w_shape, stride, padding, groups):
    """Validate and expand conv geometry.

    Returns ``(n, c, h, w, f, cg, kh, kw, fg, oh, ow)`` with the same
    error behaviour as the original autograd op.
    """
    n, c, h, w = x_shape
    f, cg, kh, kw = w_shape
    sh, sw = stride
    ph, pw = padding
    if c % groups or f % groups:
        raise ValueError(
            f"channels ({c}) and filters ({f}) must divide groups ({groups})"
        )
    if cg != c // groups:
        raise ValueError(
            f"weight expects {cg} channels/group but input has {c // groups}"
        )
    oh, ow = conv_out_size(h, w, kh, kw, sh, sw, ph, pw)
    return n, c, h, w, f, cg, kh, kw, f // groups, oh, ow


def mhsa_geometry(channels, heads, height, width):
    """Validate the MHSA head split / token geometry.

    Returns ``(dim_head, n_tokens)`` = ``(channels // heads,
    height * width)``; raises ``ValueError`` when the embedding does not
    split evenly across heads.  The single home of the check every MHSA
    consumer (attention layers, the FPGA design model, the static shape
    checker) routes through.
    """
    if heads <= 0:
        raise ValueError(f"heads must be positive, got {heads}")
    if channels % heads:
        raise ValueError(f"channels {channels} must divide heads {heads}")
    return channels // heads, height * width


def as_strided_patches(x: np.ndarray, kh: int, kw: int, sh: int, sw: int) -> np.ndarray:
    """Extract sliding (kh, kw) patches from NCHW input *x* as a view.

    Returns an array of shape (N, C, OH, OW, kh, kw) that aliases *x*
    (zero copies), suitable for a reshape-free einsum/GEMM. The caller
    must not write through the view.
    """
    n, c, h, w = x.shape
    oh = (h - kh) // sh + 1
    ow = (w - kw) // sw + 1
    sn, sc, sh_, sw_ = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, oh, ow, kh, kw),
        strides=(sn, sc, sh_ * sh, sw_ * sw, sh_, sw_),
        writeable=False,
    )


def as_strided_patches_nhwc(x: np.ndarray, kh: int, kw: int, sh: int,
                            sw: int) -> np.ndarray:
    """Channels-last twin of :func:`as_strided_patches`.

    *x* is (N, H, W, C); returns the (N, OH, OW, kh, kw, C) view that
    aliases it, channels innermost — the layout of the compiled plan's
    im2col GEMMs (strided downsamples, the fixed-point stem, the dense
    ``conv="full"`` time conv).  The caller must not write through the
    view.
    """
    n, h, w, c = x.shape
    oh, ow = conv_out_size(h, w, kh, kw, sh, sw, 0, 0)
    sn, sh_, sw_, sc = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(n, oh, ow, kh, kw, c),
        strides=(sn, sh_ * sh, sw_ * sw, sh_, sw_, sc),
        writeable=False,
    )


def as_strided_rows_nhwc(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Stride-1 windows of a channels-last *x* as contiguous output rows.

    *x* is (N, H, W, C) with its (W, C) axes contiguous.  Kernel tap
    (i, j) meets the inputs ``x[n, oh + i, j : j + OW, :]`` along
    output row ``oh``: one run of OW·C consecutive elements.  Returns
    the (N, OH, kh, kw, OW·C) view of those runs, aliasing *x*, so a
    depthwise conv is one einsum against a (kh, kw, OW·C) weight whose
    inner loop spans a whole output row.  The caller must not write
    through the view.
    """
    n, h, w, c = x.shape
    oh, ow = conv_out_size(h, w, kh, kw, 1, 1, 0, 0)
    sn, sh_, sw_, sc = x.strides
    if sw_ != c * sc:
        raise ValueError("the W and C axes of x must be contiguous")
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(n, oh, kh, kw, ow * c),
        strides=(sn, sh_, sh_, sw_, sc),
        writeable=False,
    )


def as_strided_phase_rows(planes: np.ndarray, a: int, b: int, kh: int,
                          kw: int, oh: int) -> np.ndarray:
    """The taps of one stride phase over polyphase planes as contiguous
    wide rows.

    *planes* is (N, C, SH, SW, R, QW) with its (R, QW) axes contiguous:
    plane (a, b) holds ``padded[:, :, a::SH, b::SW]`` of a zero-padded
    NCHW input.  A kernel tap (i, j) of phase (a, b) — ``i % SH == a``
    and ``j % SW == b`` — meets at output (oy, ox) the plane element
    ``(oy + i // SH, ox + j // SW)``.  Over output rows ``oy < oh`` and
    wide columns ``ox < QW`` those reads are one run of oh·QW
    consecutive elements, starting at ``(i // SH)·QW + j // SW``.
    Returns the (N, C, len(range(a, kh, SH)), len(range(b, kw, SW)),
    oh·QW) view of those runs, aliasing *planes*, so a strided dense
    conv is one GEMM over them, contracted in (C, KH, KW) order.  Its
    wide columns past the true output width read into the next row and
    are the caller's to drop.  The caller must not write through the
    view.
    """
    n, c, sh, sw, r, qw = planes.shape
    ni, nj = len(range(a, kh, sh)), len(range(b, kw, sw))
    sn, sc, _, _, sr, sq = planes.strides
    if sr != qw * sq:
        raise ValueError("the R and QW axes of planes must be contiguous")
    if (ni - 1 + oh) * qw + nj - 1 > r * qw:
        raise ValueError(
            f"{oh} wide rows of a {kh}x{kw} kernel overrun a {r}x{qw} plane"
        )
    return np.lib.stride_tricks.as_strided(
        planes[:, :, a, b],
        shape=(n, c, ni, nj, oh * qw),
        strides=(sn, sc, sr, sq, sq),
        writeable=False,
    )


def scatter_patches(dpatches, out_shape, kh, kw, sh, sw, oh, ow, dtype=None):
    """Scatter per-patch gradients back onto a padded input canvas.

    *dpatches* has shape (N, C, OH, OW, KH, KW); the return value has
    *out_shape* = (N, C, H + 2PH, W + 2PW).  Inverse of
    :func:`as_strided_patches` under summation — the backward of the
    im2col view, looping only over the (small) kernel offsets.
    """
    gxp = np.zeros(out_shape, dtype=dtype if dtype is not None else dpatches.dtype)
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw] += dpatches[
                :, :, :, :, i, j
            ]
    return gxp
