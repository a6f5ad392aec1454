"""Lowering: an Euler ODENet, folded into compile-ready arrays.

:func:`lower` walks an eval-mode :class:`~repro.models.ODENet` in
execution order and lowers each layer into a :class:`Stage` holding
*folded* float64 arrays:

* **BatchNorm folding** — an eval BN is an affine map, so ``BN → ReLU``
  becomes one fused ``relu(x * scale + shift)`` (:func:`bn_scale_shift`)
  and ``conv → BN`` becomes a conv with rescaled weights and a folded
  bias (:func:`fold_bn_after_conv`).  Folding happens in float64, the
  dtype the running-stat buffers already force onto the module
  forward, so the fold changes results only at the 1e-15 level.
* **Time-channel decomposition** — the ODE dynamics' time-concat convs
  (``conv([x, t·1])``) split into a conv over the data channels plus a
  precomputed additive map: ``conv_x(x) + t·M + bias``, where ``M`` is
  the convolution of the trailing weight column with an all-ones plane
  (:class:`TimeConvIR`, bound to a concrete geometry by the plan).
  This removes the per-step ``np.concatenate`` and one input channel
  from every conv inside the Euler loop.

Lowering never copies activations and never runs a kernel — it only
reshapes and rescales weights.  A compile lowers exactly once:
:func:`graph_signature` / :func:`graph_hash` derive the *structural*
cache key (op kinds, shapes, solver grids — not weight values) the
autotuner's schedule cache is keyed by from the lowered stages, and so
do the schedule axes.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from ..nn import DepthwiseSeparableConv2d, MHSA2d, functional as F
from ..ode import ConvODEFunc, MHSABottleneckODEFunc

#: bump to invalidate every cached schedule across releases
#: (2: float32 convs lost their gemm axis — cached schedules carrying
#: one would now silently bind as tensordot)
COMPILE_VERSION = 2

_F64 = np.float64


class CompileError(RuntimeError):
    """The model contains a construct the compiler cannot lower."""


def bn_scale_shift(bn):
    """Fold an eval-mode BatchNorm2d into ``(scale, shift)`` so that
    ``bn(x) == x * scale + shift`` — the (1, C, 1, 1) float64 affine
    form the fused scale-shift-ReLU step consumes."""
    mean, inv, weight, bias = F.batchnorm2d_params(bn)
    scale = inv if weight is None else inv * weight
    shift = -mean * scale
    if bias is not None:
        shift = shift + bias
    return np.ascontiguousarray(scale, dtype=_F64), np.ascontiguousarray(
        shift, dtype=_F64
    )


def fold_bn_after_conv(conv, bn):
    """Fold ``bn(conv(x))`` into one :class:`ConvSpec` with weights
    ``w'`` and bias ``b'`` (float64, bias shaped (1, F, 1, 1)); valid
    because an eval BN is affine per output channel."""
    mean, inv, bn_w, bn_b = F.batchnorm2d_params(bn)
    bias = None if conv.bias is None else conv.bias.data
    scale = (inv if bn_w is None else inv * bn_w).reshape(-1)
    w = conv.weight.data * scale[:, None, None, None].astype(_F64)
    base = -mean.reshape(-1) * scale if bias is None else (
        bias - mean.reshape(-1)
    ) * scale
    if bn_b is not None:
        base = base + bn_b.reshape(-1)
    return ConvSpec(w.astype(_F64), base.astype(_F64), conv.stride,
                    conv.padding, conv.groups)


class ConvSpec:
    """A dense conv frozen to compile-ready arrays.

    The weight keeps its dtype: the stem conv stays float32 (its input
    is the float32 batch, so float64 weights would change the dtype the
    module forward computes in); folded convs arrive as float64.
    """

    def __init__(self, weight, bias, stride, padding, groups=1):
        self.weight = np.ascontiguousarray(weight)
        self.bias = None if bias is None else np.ascontiguousarray(
            bias.reshape(1, -1, 1, 1)
        )
        self.stride = tuple(stride)
        self.padding = tuple(padding)
        self.groups = groups

    def signature(self):
        return {
            "kind": "conv",
            "weight": list(self.weight.shape),
            "bias": self.bias is not None,
            "stride": list(self.stride),
            "padding": list(self.padding),
            "groups": self.groups,
        }


class TimeConvIR:
    """A time-concat conv split into data-conv + additive time map.

    ``kind`` is ``"dsc"`` (depthwise-separable: depthwise taps over the
    data channels, then a pointwise GEMM) or ``"dense"``.  The trailing
    input channel — the one the runtime fed the ``t`` plane — is carried
    separately (``dw_t`` / ``w_t`` and, for DSC, its pointwise column
    ``pw_t``) so the plan can precompute ``M`` once per geometry and add
    ``t_i · M + bias`` as a single fused plane per solver step.
    """

    def __init__(self, layer):
        conv = layer.conv
        if isinstance(conv, DepthwiseSeparableConv2d):
            dw = conv.depthwise.weight.data
            pw = conv.pointwise.weight.data
            pw_bias = conv.pointwise.bias
            cin = dw.shape[0] - 1  # last channel was the t plane
            self.kind = "dsc"
            self.stride = tuple(conv.depthwise.stride)
            self.padding = tuple(conv.depthwise.padding)
            self.dw_x = np.ascontiguousarray(dw[:cin], dtype=_F64)
            self.dw_t = np.ascontiguousarray(
                dw[cin : cin + 1], dtype=_F64
            )  # (1, 1, kh, kw)
            pw2d = pw.reshape(pw.shape[0], cin + 1)
            self.pw_x = np.ascontiguousarray(pw2d[:, :cin], dtype=_F64)
            self.pw_t = np.ascontiguousarray(pw2d[:, cin], dtype=_F64)
            self.bias = None if pw_bias is None else np.ascontiguousarray(
                pw_bias.data, dtype=_F64
            )
            self.out_channels = pw.shape[0]
            self.in_channels = cin
        else:  # a plain conv over C+1 channels
            weight = conv.weight.data
            cin = weight.shape[1] - 1
            self.kind = "dense"
            self.stride = tuple(conv.stride)
            self.padding = tuple(conv.padding)
            self.w_x = np.ascontiguousarray(weight[:, :cin], dtype=_F64)
            self.w_t = np.ascontiguousarray(
                weight[:, cin : cin + 1], dtype=_F64
            )  # (F, 1, kh, kw)
            self.bias = None if conv.bias is None else np.ascontiguousarray(
                conv.bias.data, dtype=_F64
            )
            self.out_channels = weight.shape[0]
            self.in_channels = cin

    @property
    def is_pointwise(self):
        """1x1 stride-1 dense time conv (the MHSA bottleneck down/up):
        the time map is spatially constant, so the per-step additive
        term collapses to a (1, F, 1, 1) vector."""
        if self.kind != "dense":
            return False
        return self.w_x.shape[2:] == (1, 1) and self.stride == (1, 1)

    def signature(self):
        w = self.dw_x if self.kind == "dsc" else self.w_x
        return {
            "kind": f"time-{self.kind}",
            "weight": list(w.shape),
            "out": self.out_channels,
            "bias": self.bias is not None,
            "stride": list(self.stride),
            "padding": list(self.padding),
        }


class ConvFuncIR:
    """dsODENet dynamics, folded: (scale-shift-ReLU → time-conv) × 2."""

    kind = "conv"

    def __init__(self, func):
        self.scale1, self.shift1 = bn_scale_shift(func.norm1)
        self.conv1 = TimeConvIR(func.conv1)
        self.scale2, self.shift2 = bn_scale_shift(func.norm2)
        self.conv2 = TimeConvIR(func.conv2)

    def signature(self):
        return {
            "kind": self.kind,
            "conv1": self.conv1.signature(),
            "conv2": self.conv2.signature(),
        }


class MHSAIR:
    """An eval-mode :class:`~repro.nn.MHSA2d` frozen to float64 GEMM
    operands.

    ``rel_t`` is the fused relative-position table pre-transposed to
    (heads, d_h, N) so the score correction is one broadcast matmul.
    """

    def __init__(self, mhsa):
        self.w_q = np.ascontiguousarray(mhsa.w_q.data, dtype=_F64)
        self.w_k = np.ascontiguousarray(mhsa.w_k.data, dtype=_F64)
        self.w_v = np.ascontiguousarray(mhsa.w_v.data, dtype=_F64)
        self.heads = mhsa.heads
        self.activation = mhsa.attention_activation
        self.rel_t = None if mhsa.pos_enc != "relative" else (
            np.ascontiguousarray(
                F.mhsa_rel_table(mhsa).transpose(0, 2, 1), dtype=_F64
            )
        )
        self.abs_table = None if mhsa.pos_enc != "absolute" else (
            np.ascontiguousarray(mhsa.abs.table, dtype=_F64)
        )
        norm = mhsa.norm
        if norm is None:
            self.ln = None
        else:
            self.ln = tuple(
                None if p is None else np.ascontiguousarray(p.data, dtype=_F64)
                for p in (norm.weight, norm.bias)
            ) + (float(norm.eps),)

    def signature(self):
        return {
            "kind": "mhsa",
            "dim": list(self.w_q.shape),
            "heads": self.heads,
            "activation": self.activation,
            "rel": None if self.rel_t is None else list(self.rel_t.shape),
            "abs": self.abs_table is not None,
            "ln": self.ln is not None,
        }


class MHSAFuncIR:
    """The proposed bottleneck dynamics, folded: ssr → 1x1 down →
    MHSA → ssr → 1x1 up."""

    kind = "mhsa"

    def __init__(self, func):
        self.scale1, self.shift1 = bn_scale_shift(func.norm1)
        self.down = TimeConvIR(func.down)
        self.mhsa = MHSAIR(func.mhsa)
        self.scale2, self.shift2 = bn_scale_shift(func.norm2)
        self.up = TimeConvIR(func.up)

    def signature(self):
        return {
            "kind": self.kind,
            "down": self.down.signature(),
            "mhsa": self.mhsa.signature(),
            "up": self.up.signature(),
        }


class OdeBlockIR:
    """An Euler block: the folded dynamics plus the fixed time grid."""

    def __init__(self, block):
        self.steps = block.steps
        self.t0 = float(block.t0)
        self.t1 = float(block.t1)
        func = block.func
        self.func = (
            ConvFuncIR(func) if isinstance(func, ConvODEFunc)
            else MHSAFuncIR(func)
        )

    def time_grid(self):
        """The ``(t_i, h)`` sequence, accumulated exactly as the solver
        loop accumulates it (repeated addition, not ``t0 + i*h``)."""
        h = (self.t1 - self.t0) / self.steps
        ts = []
        t = self.t0
        for _ in range(self.steps):
            ts.append(t)
            t += h
        return ts, h

    def signature(self):
        return {
            "kind": "ode",
            "steps": self.steps,
            "t0": self.t0,
            "t1": self.t1,
            "func": self.func.signature(),
        }


class Stage:
    """One lowered graph node: ``(name, op, ir)``."""

    __slots__ = ("name", "op", "ir")

    def __init__(self, name, op, ir):
        self.name = name
        self.op = op
        self.ir = ir


def unsupported_reason(model):
    """Why :func:`lower` cannot take *model*, or ``None`` when it can.

    The compiler takes an eval-mode :class:`~repro.models.ODENet` whose
    blocks all run the Euler solver on conv or full-MHSA dynamics (the
    paper's deployed configuration).
    """
    from ..models.odenet import ODENet

    if not isinstance(model, ODENet):
        return f"expected ODENet, got {type(model).__name__}"
    if model.training:
        return "compile an eval-mode model (call model.eval())"
    for name in ("block1", "block2", "block3"):
        block = getattr(model, name)
        if getattr(block.solver, "name", None) != "euler":
            return f"{name} solver {block.solver.name!r} (Euler compiles)"
        func = block.func
        if not (isinstance(func, ConvODEFunc) or (
                isinstance(func, MHSABottleneckODEFunc)
                and isinstance(func.mhsa, MHSA2d))):
            return f"{name} dynamics {type(func).__name__}"
    return None


def lower(model):
    """Lower an eval-mode Euler ODENet into :class:`Stage` nodes, in
    execution order.

    Op kinds: ``conv`` (stem conv, float32 weights kept — its input is
    the float32 batch, so folding BN in would change the dtype the
    module forward computes in), ``ssr`` (fused scale-shift-ReLU from a
    BN + ReLU pair), ``maxpool``, ``ode``, ``fconv`` (conv with BN
    folded in, + ReLU), ``gap``, ``linear``.  Raises
    :class:`CompileError` for a model :func:`unsupported_reason`
    rejects.
    """
    problem = unsupported_reason(model)
    if problem is not None:
        raise CompileError(f"cannot compile this model: {problem}")
    conv, norm, _, pool = model.stem
    fc = model.fc
    return [
        Stage("stem.conv", "conv", ConvSpec(
            conv.weight.data, None if conv.bias is None else conv.bias.data,
            conv.stride, conv.padding, conv.groups,
        )),
        Stage("stem.norm", "ssr", bn_scale_shift(norm)),
        Stage("stem.pool", "maxpool",
              (pool.kernel_size, pool.stride, pool.padding)),
        Stage("block1", "ode", OdeBlockIR(model.block1)),
        Stage("down1", "fconv",
              fold_bn_after_conv(model.down1.conv, model.down1.bn)),
        Stage("block2", "ode", OdeBlockIR(model.block2)),
        Stage("down2", "fconv",
              fold_bn_after_conv(model.down2.conv, model.down2.bn)),
        Stage("block3", "ode", OdeBlockIR(model.block3)),
        Stage("head.norm", "ssr", bn_scale_shift(model.head_norm)),
        Stage("head.pool", "gap", None),
        Stage("head.fc", "linear", (
            fc.weight.data, None if fc.bias is None else fc.bias.data,
        )),
    ]


def graph_signature(stages):
    """The structural signature of lowered *stages* — shapes, geometry
    and solver grids, *not* weight values — as a JSON-able structure."""
    sig = []
    for stage in stages:
        ir = stage.ir
        if stage.op in ("conv", "fconv", "ode"):
            detail = [ir.signature()]
        elif stage.op == "ssr":
            detail = [list(ir[0].shape)]
        elif stage.op == "maxpool":
            detail = [[list(p) for p in ir]]
        elif stage.op == "linear":
            detail = [list(ir[0].shape), ir[1] is not None]
        else:  # gap
            detail = []
        sig.append([stage.name, stage.op, *detail])
    return {"compile_version": COMPILE_VERSION, "graph": sig}


def graph_hash(stages):
    """sha256 (hex) of :func:`graph_signature` — the schedule cache key
    component that invalidates on any structural change."""
    payload = json.dumps(
        graph_signature(stages), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]
