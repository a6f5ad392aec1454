"""Bit-accurate fixed-point execution of the MHSA block.

Mirrors the FPGA dataflow of Sec. V: feature maps and layer I/O in the
*feature* format, weights/relative-position vectors in the narrower
*param* format, wide integer accumulation inside each matrix product,
and a cast back to the feature format after every stage — exactly the
places the hardware rounds/saturates.

LayerNorm note: the mean is an exact integer average requantised into
the feature format; the reciprocal square root is evaluated in float
and its *output* requantised, modelling an HLS fixed-point rsqrt whose
result register is in the feature format.  The resulting error is
dominated by the feature-format rounding, which is what Table VIII /
Figs 9-10 measure.
"""

from __future__ import annotations

import contextlib

import numpy as np

from ..nn.attention import MHSA2d
from ..tensor import Tensor
from .ops import (
    div_round_half_even,
    fixed_add,
    fixed_matmul,
    fixed_mul,
    fixed_relu,
    fixed_scale,
)
from .qformat import QFormat


class QuantizedMHSA2d:
    """Fixed-point inference wrapper around a trained :class:`MHSA2d`.

    Parameters
    ----------
    mhsa:
        the float module whose weights are quantised.
    feature_fmt, param_fmt:
        :class:`QFormat` for activations and parameters, e.g.
        ``parse_format_pair("32(16)-24(8)")``.
    """

    def __init__(self, mhsa: MHSA2d, feature_fmt: QFormat, param_fmt: QFormat):
        if not isinstance(mhsa, MHSA2d):
            raise NotImplementedError(
                "the FPGA kernel implements full MHSA2d attention, got "
                f"{type(mhsa).__name__}"
            )
        if mhsa.pos_enc == "absolute":
            raise NotImplementedError(
                "the FPGA kernel implements relative or no position encoding"
            )
        self.mhsa = mhsa
        self.feature_fmt = feature_fmt
        self.param_fmt = param_fmt
        # Quantise parameters once (the accelerator stores them in DDR in
        # the param format and streams them in).
        self.wq = param_fmt.quantize(mhsa.w_q.data)
        self.wk = param_fmt.quantize(mhsa.w_k.data)
        self.wv = param_fmt.quantize(mhsa.w_v.data)
        if mhsa.pos_enc == "relative":
            rel_h = param_fmt.quantize(mhsa.rel.rel_h.data)  # (k, H, Dh)
            rel_w = param_fmt.quantize(mhsa.rel.rel_w.data)  # (k, W, Dh)
            k, h, dh = rel_h.shape
            w = rel_w.shape[1]
            self.r_table = fixed_add(
                np.broadcast_to(rel_h[:, :, None, :], (k, h, w, dh)),
                param_fmt,
                np.broadcast_to(rel_w[:, None, :, :], (k, h, w, dh)),
                param_fmt,
                param_fmt,
            ).reshape(k, h * w, dh)
        else:
            self.r_table = None
        if mhsa.norm is not None:
            self.ln_gamma = param_fmt.quantize(mhsa.norm.weight.data)
            self.ln_beta = param_fmt.quantize(mhsa.norm.bias.data)

    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the block on float NCHW input; returns float output that
        is exactly representable in the feature format."""
        b, d, h, w = x.shape
        tokens = self.feature_fmt.quantize(
            np.asarray(x, dtype=np.float64).reshape(b, d, h * w)
            .transpose(0, 2, 1)
        )
        out = self.forward_tokens(tokens)
        return self.feature_fmt.dequantize(out).transpose(0, 2, 1).reshape(
            b, d, h, w
        ).astype(x.dtype)

    def forward_tokens(self, tokens: np.ndarray) -> np.ndarray:
        """Run the block on int64 feature-format raws laid out as
        (B, N, D) tokens; returns the (B, N, D) output raws."""
        m = self.mhsa
        ffmt, pfmt = self.feature_fmt, self.param_fmt
        b, n, d = tokens.shape
        heads, dh = m.heads, m.dim_head

        def split(t):
            return t.reshape(b, n, heads, dh).transpose(0, 2, 1, 3)

        q = split(fixed_matmul(tokens, ffmt, self.wq, pfmt, ffmt))
        k = split(fixed_matmul(tokens, ffmt, self.wk, pfmt, ffmt))
        v = split(fixed_matmul(tokens, ffmt, self.wv, pfmt, ffmt))

        logits = fixed_matmul(q, ffmt, k.transpose(0, 1, 3, 2), ffmt, ffmt)
        if self.r_table is not None:
            qr = fixed_matmul(q, ffmt, self.r_table.transpose(0, 2, 1), pfmt, ffmt)
            logits = fixed_add(logits, ffmt, qr, ffmt, ffmt)
        logits = fixed_scale(logits, ffmt, 1.0 / np.sqrt(dh), pfmt, ffmt)

        if m.attention_activation == "relu":
            attn = fixed_relu(logits)
        else:
            # Softmax has no direct fixed-point kernel in the paper's
            # design; evaluate in float and requantise the result
            # (modelling a LUT-based exponential unit).
            lf = ffmt.dequantize(logits)
            lf = lf - lf.max(axis=-1, keepdims=True)
            e = np.exp(lf)
            attn = ffmt.quantize(e / e.sum(axis=-1, keepdims=True))

        out = fixed_matmul(attn, ffmt, v, ffmt, ffmt)  # (B, heads, N, Dh)
        out = out.transpose(0, 2, 1, 3).reshape(b, n, d)

        if m.norm is not None:
            out = self._layernorm(out)
        return out

    # ------------------------------------------------------------------
    def _layernorm(self, raw: np.ndarray) -> np.ndarray:
        """Fixed-point LayerNorm over the channel axis."""
        ffmt, pfmt = self.feature_fmt, self.param_fmt
        d = raw.shape[-1]
        # Exact integer mean, requantised into the feature format.
        mean = ffmt.saturate(
            div_round_half_even(raw.sum(axis=-1, keepdims=True), d)
        )
        centered = ffmt.saturate(raw - mean)
        # Variance and rsqrt in float; the *result* lives in the feature
        # register format, so requantise it there.
        cf = ffmt.dequantize(centered)
        inv_std = ffmt.quantize(
            1.0 / np.sqrt((cf ** 2).mean(axis=-1, keepdims=True) + self.mhsa.norm.eps)
        )
        normed = fixed_mul(centered, ffmt, inv_std, ffmt, ffmt)
        scaled = fixed_mul(normed, ffmt, self.ln_gamma, pfmt, ffmt)
        return fixed_add(scaled, ffmt, self.ln_beta, pfmt, ffmt)

    __call__ = forward


@contextlib.contextmanager
def use_quantized_mhsa(model, feature_fmt: QFormat, param_fmt: QFormat):
    """Temporarily route every :class:`MHSA2d` in *model* through its
    fixed-point implementation (inference only).

    Reproduces the paper's HW/SW split: the MHSA block runs on the PL in
    fixed point while the rest of the model stays in float on the PS
    (Sec. VI-B5).
    """
    patched = []
    for module in model.modules():
        if isinstance(module, MHSA2d):
            qmod = QuantizedMHSA2d(module, feature_fmt, param_fmt)
            original = module.forward

            def quantized_forward(x, _q=qmod):
                return Tensor(_q.forward(x.data), _copy=False)

            object.__setattr__(module, "forward", quantized_forward)
            patched.append((module, original))
    if not patched:
        raise ValueError("model contains no MHSA2d module to quantise")
    try:
        yield model
    finally:
        for module, original in patched:
            object.__setattr__(module, "forward", original)
