"""Multi-Head Self-Attention over 2-D feature maps (BoTNet style).

Implements the paper's MHSA block (Sec. III-A and Fig. 4):

* query/key/value projections ``Q = X W^q``, ``K = X W^k``, ``V = X W^v``
  with ``W ∈ R^{D×D}`` split across heads (Eq. 3-5, 9);
* 2-D *relative* position encoding: per-head learnable vectors
  ``R_h ∈ R^{H×1×D_h}`` and ``R_w ∈ R^{1×W×D_h}`` combined as
  ``R = R_h 1^T + 1 R_w`` and fused into the logits as ``Q R^T`` (Eq. 15);
* attention activation: standard row-wise softmax, or the
  hardware-friendly **ReLU** the paper deploys on the FPGA (Eq. 16);
* optional output LayerNorm to stabilise ReLU attention (Eq. 17).

Input/output are NCHW feature maps; internally positions are flattened
to N = H*W tokens and all head computations are batched GEMMs.
"""

from __future__ import annotations

import numpy as np

from ..kernels import shapes
from ..tensor import Tensor
from . import init
from .module import Module, Parameter
from .norm import LayerNorm


class SinusoidalPositionEncoding(Module):
    """Absolute sinusoidal encoding (Transformer Eq. 8), for ablations.

    Produces a constant (N, D) table added to the token sequence. The
    paper quotes base 1000; we use the standard 10000 of Vaswani et al.,
    which the paper's Eq. (8) transcribes.
    """

    def __init__(self, num_positions, dim, base=10000.0):
        super().__init__()
        if dim % 2:
            raise ValueError("dim must be even for sinusoidal encoding")
        pos = np.arange(num_positions)[:, None]
        j = np.arange(dim // 2)[None, :]
        angle = pos / base ** (2 * j / dim)
        table = np.zeros((num_positions, dim))
        table[:, 0::2] = np.sin(angle)
        table[:, 1::2] = np.cos(angle)
        self.register_buffer("table", table)

    def forward(self, tokens):
        # tokens: (B, N, D)
        return tokens + Tensor(self.table.astype(tokens.data.dtype), _copy=False)


class RelativePositionEncoding2d(Module):
    """Learnable per-head row/column relative encodings.

    Holds ``rel_h`` of shape (heads, H, D_h) and ``rel_w`` of shape
    (heads, W, D_h); :meth:`table` returns the fused (heads, H*W, D_h)
    position table R with ``R[h, y*W+x] = rel_h[h, y] + rel_w[h, x]``.
    Initial values are drawn from a normal distribution (Sec. V-A).
    """

    def __init__(self, heads, height, width, dim_head, *, rng=None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.heads = heads
        self.height = height
        self.width = width
        self.dim_head = dim_head
        self.rel_h = Parameter(init.normal(rng, (heads, height, dim_head), std=1.0))
        self.rel_w = Parameter(init.normal(rng, (heads, width, dim_head), std=1.0))

    def table(self):
        """Fused (heads, N, D_h) relative-position table."""
        h = self.rel_h.reshape(self.heads, self.height, 1, self.dim_head)
        w = self.rel_w.reshape(self.heads, 1, self.width, self.dim_head)
        full = h.broadcast_to(
            (self.heads, self.height, self.width, self.dim_head)
        ) + w.broadcast_to((self.heads, self.height, self.width, self.dim_head))
        return full.reshape(self.heads, self.height * self.width, self.dim_head)

    def forward(self):  # pragma: no cover - alias
        return self.table()


class MHSA2d(Module):
    """Multi-head self-attention over an NCHW feature map.

    Parameters
    ----------
    channels:
        embedding dim D (input and output channels).
    height, width:
        spatial size of the expected feature map (relative encodings are
        size-specific, as in BoTNet).
    heads:
        number of attention heads k; ``D_h = D // k``.
    pos_enc:
        'relative' (paper default), 'absolute' (sinusoidal) or 'none'.
    attention_activation:
        'softmax' (Eq. 6) or 'relu' (Eq. 16, the FPGA-friendly variant).
    out_layernorm:
        apply LayerNorm over channels at the output (Eq. 17). The paper
        enables this together with ReLU attention.
    """

    def __init__(
        self,
        channels,
        height,
        width,
        heads=4,
        pos_enc="relative",
        attention_activation="softmax",
        out_layernorm=False,
        *,
        rng=None,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        dim_head, _ = shapes.mhsa_geometry(channels, heads, height, width)
        if pos_enc not in ("relative", "absolute", "none"):
            raise ValueError(f"unknown pos_enc {pos_enc!r}")
        if attention_activation not in ("softmax", "relu"):
            raise ValueError(
                f"unknown attention_activation {attention_activation!r}"
            )
        self.channels = channels
        self.height = height
        self.width = width
        self.heads = heads
        self.dim_head = dim_head
        self.pos_enc = pos_enc
        self.attention_activation = attention_activation

        d = channels
        self.w_q = Parameter(init.xavier_uniform(rng, (d, d)))
        self.w_k = Parameter(init.xavier_uniform(rng, (d, d)))
        self.w_v = Parameter(init.xavier_uniform(rng, (d, d)))

        if pos_enc == "relative":
            self.rel = RelativePositionEncoding2d(
                heads, height, width, self.dim_head, rng=rng
            )
        elif pos_enc == "absolute":
            self.abs = SinusoidalPositionEncoding(height * width, channels)

        self.norm = LayerNorm(channels) if out_layernorm else None

    # ------------------------------------------------------------------
    def _split_heads(self, t, batch, n):
        """(B, N, D) -> (B, heads, N, D_h)"""
        return t.reshape(batch, n, self.heads, self.dim_head).transpose(0, 2, 1, 3)

    def forward(self, x):
        b, d, h, w = x.shape
        if d != self.channels or h != self.height or w != self.width:
            raise ValueError(
                f"MHSA2d configured for ({self.channels},{self.height},"
                f"{self.width}) got input ({d},{h},{w})"
            )
        n = h * w
        tokens = x.reshape(b, d, n).transpose(0, 2, 1)  # (B, N, D)
        if self.pos_enc == "absolute":
            tokens = self.abs(tokens)

        q = self._split_heads(tokens @ self.w_q, b, n)
        k = self._split_heads(tokens @ self.w_k, b, n)
        v = self._split_heads(tokens @ self.w_v, b, n)

        logits = q @ k.transpose(0, 1, 3, 2)  # (B, heads, N, N)
        if self.pos_enc == "relative":
            r = self.rel.table()  # (heads, N, D_h)
            logits = logits + (q @ r.transpose(0, 2, 1))
        logits = logits * (1.0 / np.sqrt(self.dim_head))

        if self.attention_activation == "softmax":
            attn = logits.softmax(axis=-1)
        else:
            attn = logits.relu()

        out = attn @ v  # (B, heads, N, D_h)
        out = out.transpose(0, 2, 1, 3).reshape(b, n, d)  # concat heads
        if self.norm is not None:
            out = self.norm(out)
        return out.transpose(0, 2, 1).reshape(b, d, h, w)

    # ------------------------------------------------------------------
    def attention_maps(self, x: np.ndarray) -> np.ndarray:
        """Return the attention weights A for an NCHW batch.

        Shape (B, heads, N, N) where N = H*W; rows are the per-query
        weights of Eq. (6) / Eq. (16).  Used by the analysis tooling to
        verify the paper's claim (via its [25]) that ReLU attention is
        *sparse* while softmax attention is dense.
        """
        b, d, h, w = x.shape
        n = h * w
        kh, dh = self.heads, self.dim_head
        tokens = np.asarray(x, dtype=np.float64).reshape(b, d, n).transpose(0, 2, 1)
        if self.pos_enc == "absolute":
            tokens = tokens + self.abs.table

        def split(t):
            return t.reshape(b, n, kh, dh).transpose(0, 2, 1, 3)

        q = split(tokens @ self.w_q.data)
        k = split(tokens @ self.w_k.data)
        logits = q @ k.transpose(0, 1, 3, 2)
        if self.pos_enc == "relative":
            r = (
                self.rel.rel_h.data[:, :, None, :]
                + self.rel.rel_w.data[:, None, :, :]
            ).reshape(kh, n, dh)
            logits = logits + q @ r.transpose(0, 2, 1)
        logits = logits / np.sqrt(dh)
        if self.attention_activation == "softmax":
            logits = logits - logits.max(axis=-1, keepdims=True)
            e = np.exp(logits)
            return e / e.sum(axis=-1, keepdims=True)
        return np.maximum(logits, 0.0)
