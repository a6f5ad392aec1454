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
reshapes and rescales weights.  Every lowered array is the plan's own:
none aliases a model parameter, because a weight load writes the new
generation into the parameters in place, and a bound plan must keep
serving the generation it was compiled from until it is replaced.  A
compile lowers exactly once and binds the resulting stages
(:func:`repro.compile.plan.compile_model`).

:func:`lower_fixed` is the second lowering, into the fixed-point domain
of :class:`~repro.fixedpoint.QuantizedODENetExecutor`.  It folds
nothing: every place the executor rounds (each BN, both halves of each
time conv, the MHSA output, the Euler step, the head linear) stays a
:class:`Site`, because folding a BN or the step size into a conv would
move a rounding point.  Weights are quantized once and pre-scaled by
their site's power of two, so a site is a float GEMM over
integer-valued operands followed by ``rint`` + ``clip``.
"""

from __future__ import annotations

import numpy as np

from ..fixedpoint import QuantizedMHSA2d, accumulator_bits, requantize
from ..fixedpoint.ops import F32_EXACT_BITS, F64_EXACT_BITS
from ..fixedpoint.quantized_layers import fold_batchnorm
from ..nn import DepthwiseSeparableConv2d, MHSA2d, functional as F
from ..ode import ConvODEFunc, MHSABottleneckODEFunc

_F64 = np.float64


class CompileError(RuntimeError):
    """The model contains a construct the compiler cannot lower."""


def _data(param):
    """A copy of *param*'s array (None for a missing bias)."""
    return None if param is None else param.data.copy()


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
    bias = _data(conv.bias)
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
    module forward computes in); folded convs arrive as float64, and
    fixed-point convs in their site's dtype with ``site`` set.
    """

    def __init__(self, weight, bias, stride, padding, groups=1, site=None):
        self.weight = np.ascontiguousarray(weight)
        self.bias = None if bias is None else np.ascontiguousarray(
            bias.reshape(1, -1, 1, 1)
        )
        self.stride = tuple(stride)
        self.padding = tuple(padding)
        self.groups = groups
        self.site = site


class Site:
    """A fixed-point rounding point: ``rint`` (round half to even, the
    executor's ``_rescale``), then saturation into the feature format's
    raw range ``[lo, hi]``; ``scale`` is the value of one raw LSB."""

    __slots__ = ("lo", "hi", "scale")

    def __init__(self, ffmt):
        self.lo, self.hi = float(ffmt.raw_min), float(ffmt.raw_max)
        self.scale = ffmt.scale


class _FloatParams:
    """The float lowering's parameter source: float64 copies, no sites."""

    site = None

    @staticmethod
    def dtype(fan_in):
        return _F64

    @staticmethod
    def param(a, dtype, bias=False):
        return None if a is None else np.ascontiguousarray(a, dtype=dtype)


class FixedParams:
    """The fixed-point lowering's parameter source for one format pair.

    Each parameter is quantized once into the param format and
    pre-scaled by a power of two (exact: only the exponent moves), so a
    site's accumulator is directly in output raws.  Each site computes
    in the narrowest float whose mantissa holds its worst-case
    accumulator (:func:`~repro.fixedpoint.accumulator_bits`); every
    partial sum is then an exact multiple of one LSB, so any summation
    order gives the executor's bits.
    """

    def __init__(self, ffmt, pfmt):
        self.ffmt, self.pfmt, self.site = ffmt, pfmt, Site(ffmt)

    def dtype(self, fan_in):
        """float32 or float64 for a site summing *fan_in* products."""
        bits = accumulator_bits(
            self.ffmt.total_bits, self.pfmt.total_bits, fan_in
        )
        if bits > F64_EXACT_BITS:
            raise CompileError(
                f"a fan-in-{fan_in} site of {self.ffmt}-{self.pfmt} needs "
                f"{bits} accumulator bits, past the float64 mantissa"
            )
        return np.float32 if bits <= F32_EXACT_BITS else _F64

    def param(self, a, dtype, bias=False):
        """A weight pre-scaled by ``2^-P_frac``, a bias by
        ``2^(F_frac - P_frac)``."""
        if a is None:
            return None
        exponent = (self.ffmt.frac_bits if bias else 0) - self.pfmt.frac_bits
        return np.ascontiguousarray(
            self.pfmt.quantize(a) * 2.0 ** exponent, dtype=dtype
        )

    def bn(self, bn):
        """A BN site: its pre-scaled scale, and its shift cast into the
        feature format."""
        scale, shift = fold_batchnorm(bn, self.pfmt)
        dtype = self.dtype(1)
        return (
            (scale * 2.0 ** -self.pfmt.frac_bits).astype(dtype),
            requantize(shift, self.pfmt, self.ffmt).astype(dtype),
        )

    def conv(self, conv):
        """A stem or downsample conv site."""
        w, b = conv.weight.data, _data(conv.bias)
        dtype = self.dtype(w[0].size + (b is not None))
        return ConvSpec(self.param(w, dtype), self.param(b, dtype, True),
                        conv.stride, conv.padding, conv.groups, self.site)

    def time_grid(self, t0, t1, steps):
        """The executor's grid: the raws of ``t0 + i*h``, and ``h`` as a
        pre-scaled param-format constant."""
        h = (t1 - t0) / steps
        ts = [float(self.ffmt.quantize(np.array(t0 + i * h)))
              for i in range(steps)]
        return ts, self.param(np.array(h), _F64).item()


class TimeConvIR:
    """A time-concat conv split into data-conv + additive time map.

    ``kind`` is ``"dsc"`` (depthwise-separable: a depthwise conv over the
    data channels, then a pointwise GEMM) or ``"dense"``.  The trailing
    input channel — the one the runtime fed the ``t`` plane — is carried
    separately (``dw_t`` / ``w_t`` and, for DSC, its pointwise column
    ``pw_t``) so the plan can precompute ``M`` once per geometry and add
    ``t_i · M + bias`` as a single fused plane per solver step.

    *params* is where the arrays come from: float64 copies by default,
    or a :class:`FixedParams`, which quantizes them for the conv's
    ``site`` and picks its ``dtype`` (a DSC conv computes both halves in
    the wider of its two sites' dtypes).
    """

    def __init__(self, layer, params=None):
        params = _FloatParams if params is None else params
        self.site = params.site
        conv = layer.conv
        if isinstance(conv, DepthwiseSeparableConv2d):
            dw = conv.depthwise.weight.data
            pw = conv.pointwise.weight.data
            bias = _data(conv.pointwise.bias)
            cin = dw.shape[0] - 1  # last channel was the t plane
            self.dtype = params.dtype(
                max(dw[0].size, cin + 1 + (bias is not None))
            )
            dw = params.param(dw, self.dtype)
            pw2d = params.param(pw, self.dtype).reshape(pw.shape[0], cin + 1)
            self.kind = "dsc"
            self.stride = tuple(conv.depthwise.stride)
            self.padding = tuple(conv.depthwise.padding)
            self.dw_x = np.ascontiguousarray(dw[:cin])
            self.dw_t = np.ascontiguousarray(dw[cin : cin + 1])  # (1, 1, kh, kw)
            self.pw_x = np.ascontiguousarray(pw2d[:, :cin])
            self.pw_t = np.ascontiguousarray(pw2d[:, cin])
            self.out_channels = pw.shape[0]
        else:  # a plain conv over C+1 channels
            weight = conv.weight.data
            bias = _data(conv.bias)
            cin = weight.shape[1] - 1
            self.dtype = params.dtype(weight[0].size + (bias is not None))
            weight = params.param(weight, self.dtype)
            self.kind = "dense"
            self.stride = tuple(conv.stride)
            self.padding = tuple(conv.padding)
            self.w_x = np.ascontiguousarray(weight[:, :cin])
            self.w_t = np.ascontiguousarray(
                weight[:, cin : cin + 1]
            )  # (F, 1, kh, kw)
            self.out_channels = weight.shape[0]
        self.bias = params.param(bias, self.dtype, bias=True)
        self.in_channels = cin

    @property
    def is_pointwise(self):
        """1x1 stride-1 dense time conv (the MHSA bottleneck down/up):
        the time map is spatially constant, so the per-step additive
        term collapses to a (1, F, 1, 1) vector."""
        if self.kind != "dense":
            return False
        return self.w_x.shape[2:] == (1, 1) and self.stride == (1, 1)


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


class FuncIR:
    """ODE dynamics, lowered: BN → ReLU → time conv ``conv1`` → [MHSA] →
    BN → ReLU → time conv ``conv2``.

    ``kind`` is ``"conv"`` (dsODENet) or ``"mhsa"`` (the proposed
    bottleneck, whose 1x1 down/up projections are ``conv1``/``conv2``).
    BNs are folded to ``(scale, shift)`` — or, under a
    :class:`FixedParams`, kept as sites, with the MHSA the oracle's own
    :class:`~repro.fixedpoint.QuantizedMHSA2d`.
    """

    def __init__(self, func, params=None):
        bn = bn_scale_shift if params is None else params.bn
        self.kind = "conv" if isinstance(func, ConvODEFunc) else "mhsa"
        conv = self.kind == "conv"
        self.scale1, self.shift1 = bn(func.norm1)
        self.conv1 = TimeConvIR(func.conv1 if conv else func.down, params)
        self.mhsa = None if conv else (
            MHSAIR(func.mhsa) if params is None
            else QuantizedMHSA2d(func.mhsa, params.ffmt, params.pfmt)
        )
        self.scale2, self.shift2 = bn(func.norm2)
        self.conv2 = TimeConvIR(func.conv2 if conv else func.up, params)


class OdeBlockIR:
    """An Euler block: the lowered dynamics plus the fixed time grid."""

    def __init__(self, block, params=None):
        self.steps = block.steps
        self.t0 = float(block.t0)
        self.t1 = float(block.t1)
        self.params = params
        self.func = FuncIR(block.func, params)

    def time_grid(self):
        """The ``(t_i, h)`` sequence, accumulated exactly as the solver
        loop accumulates it (repeated addition, not ``t0 + i*h``) — or,
        in fixed point, :meth:`FixedParams.time_grid`."""
        if self.params is not None:
            return self.params.time_grid(self.t0, self.t1, self.steps)
        h = (self.t1 - self.t0) / self.steps
        ts = []
        t = self.t0
        for _ in range(self.steps):
            ts.append(t)
            t += h
        return ts, h


class Stage:
    """One lowered graph node: ``(name, op, ir)``."""

    __slots__ = ("name", "op", "ir")

    def __init__(self, name, op, ir):
        self.name = name
        self.op = op
        self.ir = ir


def unsupported_reason(model, fixed=False):
    """Why :func:`lower` (or, with *fixed*, :func:`lower_fixed`) cannot
    take *model*, or ``None`` when it can.

    The compiler takes an eval-mode :class:`~repro.models.ODENet` whose
    blocks all run the Euler solver on conv or full-MHSA dynamics (the
    paper's deployed configuration); the fixed-point MHSA has no
    absolute position table.
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
        if fixed and isinstance(func, MHSABottleneckODEFunc) and (
                func.mhsa.pos_enc == "absolute"):
            return f"{name} absolute position encoding in fixed point"
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
    return [
        Stage("stem.conv", "conv", ConvSpec(
            _data(conv.weight), _data(conv.bias), conv.stride, conv.padding,
            conv.groups,
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
        Stage("head.fc", "linear",
              (_data(model.fc.weight), _data(model.fc.bias), None)),
    ]


def lower_fixed(model, ffmt, pfmt):
    """Lower an eval-mode Euler ODENet into the fixed-point domain of
    ``QuantizedODENetExecutor(model, ffmt, pfmt)``, in execution order.

    Every rounding site of the executor is kept, in its order:
    ``quantize`` (the input cast), ``fconv`` (stem and downsample convs,
    each a site), ``bn`` (a BN site, then ReLU), ``maxpool``, ``ode``
    (BN, time-conv halves, MHSA and the Euler step as sites), ``gap``
    (the exact integer average) and ``linear`` (a site, then the
    dequantized logits).  Nothing is folded.  Raises
    :class:`CompileError` for a model :func:`unsupported_reason`
    rejects or a site whose accumulator outgrows the float64 mantissa.
    """
    problem = unsupported_reason(model, fixed=True)
    if problem is not None:
        raise CompileError(f"cannot compile this model: {problem}")
    params = FixedParams(ffmt, pfmt)
    site = params.site

    def bn(norm):
        return params.bn(norm) + (site,)

    conv, norm, _, pool = model.stem
    fc_w, fc_b = model.fc.weight.data, _data(model.fc.bias)
    fc_dtype = params.dtype(fc_w.shape[1] + (fc_b is not None))
    return [
        Stage("stem.quantize", "quantize", site),
        Stage("stem.conv", "fconv", params.conv(conv)),
        Stage("stem.norm", "bn", bn(norm)),
        Stage("stem.pool", "maxpool",
              (pool.kernel_size, pool.stride, pool.padding)),
        Stage("block1", "ode", OdeBlockIR(model.block1, params)),
        Stage("down1.conv", "fconv", params.conv(model.down1.conv)),
        Stage("down1.norm", "bn", bn(model.down1.bn)),
        Stage("block2", "ode", OdeBlockIR(model.block2, params)),
        Stage("down2.conv", "fconv", params.conv(model.down2.conv)),
        Stage("down2.norm", "bn", bn(model.down2.bn)),
        Stage("block3", "ode", OdeBlockIR(model.block3, params)),
        Stage("head.norm", "bn", bn(model.head_norm)),
        Stage("head.pool", "gap", site),
        Stage("head.fc", "linear", (
            params.param(fc_w, fc_dtype), params.param(fc_b, fc_dtype, True),
            site,
        )),
    ]
