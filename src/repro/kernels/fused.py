"""The ``fused`` backend: BLAS-routed convs, workspace reuse, in-place math.

Same math as :class:`~repro.kernels.reference.ReferenceBackend`, scheduled
for speed (outputs agree to float rounding, ≤1e-6 relative — pinned by
the parity suite in ``tests/test_kernels.py``):

* **conv2d** picks a shape-specialised strategy instead of the generic
  grouped einsum: 1×1 stride-1 pointwise convs collapse to one batched
  GEMM over the channel axis, depthwise convs accumulate directly over
  the (few) kernel offsets, and dense convs contract the zero-copy
  patch view with ``np.tensordot`` so the heavy lifting lands in BLAS
  ``matmul`` rather than the einsum machinery.
* **padded inputs** are staged into a per-thread workspace whose zero
  border is written once and reused across calls — the ODE solver calls
  the same conv geometry every step, so after step one padding costs a
  single interior copy.
* **softmax / batchnorm** reuse their intermediates in place, halving
  temporary allocations on the attention hot path.

Integer (fixed-point raw) GEMMs — matmul, linear, conv2d — run on the
float BLAS path whenever that is exact: integer arithmetic is exact in
IEEE floats while every product and partial sum stays below the
mantissa capacity (``2^24`` for float32, ``2^53`` for float64).  Each
integer GEMM bounds its worst-case accumulator from the actual operands
(``max|a| · max|b| · fan_in``), runs in the narrowest float dtype that
holds it and casts the integer-valued result back to int64; when no
float dtype is wide enough it stays on the int64 path.  Integer results
are therefore **bit-identical** to the reference backend's on every
input (pinned per registry model and Q-format by the parity suite).

Backward kernels are inherited from the reference backend: training
gradients stay the well-tested einsum path while eval forwards get the
speed.  (Gradcheck passes under this backend because analytic gradients
of the same math agree with finite differences of any summation order.)
"""

from __future__ import annotations

import threading

import numpy as np

from . import shapes
from .reference import ReferenceBackend


#: integer magnitudes strictly below these fit the float mantissa
#: exactly (see repro.fixedpoint.ops.F32_EXACT_BITS / F64_EXACT_BITS)
_F32_EXACT = 1 << 24
_F64_EXACT = 1 << 53


def _exact_float_dtype(a, b, fan_in):
    """Float dtype in which contracting integer arrays *a* and *b* over
    *fan_in* terms is exact, or ``None`` when only int64 holds the
    accumulator; ``None`` as well when either operand is not integer."""
    if not (isinstance(a, np.ndarray) and a.dtype.kind in "iu"
            and isinstance(b, np.ndarray) and b.dtype.kind in "iu"):
        return None
    bound = (int(np.abs(a).max(initial=0)) * int(np.abs(b).max(initial=0))
             * max(int(fan_in), 1) + 1)
    if bound < _F32_EXACT:
        return np.float32
    if bound < _F64_EXACT:
        return np.float64
    return None


class _Workspace(threading.local):
    """Per-thread scratch arrays keyed by (tag, shape, dtype)."""

    def __init__(self):
        self.cache = {}

    def get(self, tag, shape, dtype):
        key = (tag, shape, np.dtype(dtype).str)
        buf = self.cache.get(key)
        if buf is None:
            buf = self.cache[key] = np.zeros(shape, dtype=dtype)
        return buf


class FusedBackend(ReferenceBackend):
    """Speed-scheduled kernels; semantics defined by the reference."""

    name = "fused"

    def __init__(self):
        self._ws = _Workspace()

    # -- GEMM family: exact integer rerouting --------------------------
    def matmul(self, a, b):
        dt = _exact_float_dtype(a, b, a.shape[-1])
        if dt is not None:
            return super().matmul(a.astype(dt), b.astype(dt)).astype(np.int64)
        return super().matmul(a, b)

    def linear(self, x, weight, bias=None):
        dt = _exact_float_dtype(x, weight, x.shape[-1])
        if dt is not None:
            out = super().linear(x.astype(dt), weight.astype(dt))
            out = out.astype(np.int64)
            if bias is not None:
                out += bias  # exact in the integer domain
            return out
        return super().linear(x, weight, bias)

    # -- convolution ---------------------------------------------------
    def _padded(self, x, ph, pw):
        """Stage *x* into a reusable zero-bordered canvas.

        The border is zeroed exactly once (at allocation); every call
        only rewrites the interior, so steady-state padding is one copy
        with no allocation.  The canvas never escapes: every strategy
        below reads it through a patch view and writes a fresh output.
        """
        if ph == 0 and pw == 0:
            return x
        n, c, h, w = x.shape
        xp = self._ws.get("pad", (n, c, h + 2 * ph, w + 2 * pw), x.dtype)
        xp[:, :, ph : ph + h, pw : pw + w] = x
        return xp

    def conv2d(self, x, weight, stride=(1, 1), padding=(0, 0), groups=1):
        dt = _exact_float_dtype(x, weight, weight[0].size)
        if dt is not None:
            out = self.conv2d(x.astype(dt), weight.astype(dt), stride,
                              padding, groups)
            return out.astype(np.int64)
        n, c, h, w, f, cg, kh, kw, fg, oh, ow = shapes.conv_geometry(
            x.shape, weight.shape, stride, padding, groups
        )
        sh, sw = stride
        ph, pw = padding

        # 1x1 stride-1 dense conv == one batched channel GEMM.
        if (kh, kw, sh, sw, ph, pw, groups) == (1, 1, 1, 1, 0, 0, 1):
            out = np.matmul(weight.reshape(f, c), x.reshape(n, c, h * w))
            return out.reshape(n, f, oh, ow)

        xp = self._padded(x, ph, pw)

        # Depthwise: direct multiply-accumulate over kernel offsets.
        if groups == c and f == c and cg == 1:
            out = None
            scratch = None
            for i in range(kh):
                for j in range(kw):
                    tap = weight[:, 0, i, j].reshape(1, c, 1, 1)
                    window = xp[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw]
                    if out is None:
                        out = np.multiply(tap, window)
                        scratch = self._ws.get("dw", out.shape, out.dtype)
                    else:
                        np.multiply(tap, window, out=scratch)
                        out += scratch
            return out

        patches = shapes.as_strided_patches(xp, kh, kw, sh, sw)
        if groups == 1:
            # Contract (C, KH, KW) against the weight via BLAS.
            out = np.tensordot(patches, weight, axes=([1, 4, 5], [1, 2, 3]))
            return np.ascontiguousarray(out.transpose(0, 3, 1, 2))

        # General grouped case: the reference einsum (rare in practice).
        pg = patches.reshape(n, groups, cg, oh, ow, kh, kw)
        wg = weight.reshape(groups, fg, cg, kh, kw)
        out = np.einsum("ngcxykl,gfckl->ngfxy", pg, wg, optimize=True)
        return np.ascontiguousarray(out.reshape(n, f, oh, ow))

    def maxpool2d(self, x, kernel_size, stride=None, padding=(0, 0)):
        kh, kw = kernel_size
        sh, sw = stride if stride is not None else kernel_size
        ph, pw = padding
        shapes.conv_out_size(x.shape[2], x.shape[3], kh, kw, sh, sw, ph, pw)
        if ph or pw:
            # The pooling canvas needs a non-zero border fill, so it
            # keeps its own workspace tag with the border refilled only
            # at allocation (the fill is dtype-determined, hence stable).
            n, c, h, w = x.shape
            key_shape = (n, c, h + 2 * ph, w + 2 * pw)
            xp = self._ws.get("pool", key_shape, x.dtype)
            if xp[0, 0, 0, 0] != shapes.pool_pad_value(x.dtype):
                xp.fill(shapes.pool_pad_value(x.dtype))
            xp[:, :, ph : ph + h, pw : pw + w] = x
        else:
            xp = x
        patches = shapes.as_strided_patches(xp, kh, kw, sh, sw)
        return patches.max(axis=(4, 5))

    # -- elementwise / score kernels -----------------------------------
    def softmax(self, x, axis=-1):
        e = np.exp(x - x.max(axis=axis, keepdims=True))
        np.divide(e, e.sum(axis=axis, keepdims=True), out=e)
        return e

    def batchnorm2d(self, x, mean, inv_std, weight=None, bias=None):
        out = x - mean
        np.multiply(out, inv_std, out=out)
        if weight is not None:
            np.multiply(out, weight, out=out)
            np.add(out, bias, out=out)
        return out
