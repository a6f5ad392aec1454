"""Static shape / dtype / Q-format checking of model execution plans.

This is the abstract-interpretation half of :mod:`repro.lint`: a model
(or a runtime execution plan) is walked symbolically — no kernel ever
executes — propagating a batch-free NCHW :class:`SymbolicTensor`
through every layer using the same geometry arithmetic the kernels use
(:mod:`repro.kernels.shapes`).  Three families of findings come out:

* ``SHP001`` shape mismatches — channel/geometry disagreements the
  runtime would only discover mid-forward (or, on the FPGA path, not
  at all);
* ``SHP002`` dtype mixing — a layer whose parameters and incoming
  activations disagree, which numpy silently upcasts but a fixed-point
  pipeline mis-executes;
* ``SHP003`` Q-format accumulator overflow risk — given
  ``(feature_fmt, param_fmt)``, the worst-case accumulator width of
  each GEMM/conv site is bounded analytically; widths beyond the int64
  simulator (wraps *silently*) are errors, widths beyond a single
  DSP48-style 48-bit accumulator are warnings.

Entry points: :func:`check_model` (any :class:`repro.nn.Module`, best
coverage for the ODENet family), :func:`check_plan` (a
:class:`~repro.runtime.ModulePlan`, via its module), and
:func:`check_fixed_point` / :func:`check_quantized` for the Q-format
analysis.
"""

from __future__ import annotations

import math

import numpy as np

from ..kernels import shapes
from .diagnostics import Diagnostic, Severity

SHAPE_MISMATCH = "SHP001"
DTYPE_MIXING = "SHP002"
Q_OVERFLOW = "SHP003"
OPAQUE_MODULE = "SHP100"

#: accumulator widths: the int64 software simulator and one DSP48 slice
INT_ACC_BITS = 64
DSP_ACC_BITS = 48


class SymbolicTensor:
    """A batch-free activation: ``(C, H, W)`` or ``(F,)`` plus dtype.

    The batch dimension is symbolic (every op here is batch-invariant),
    so one walk validates all batch sizes at once.
    """

    def __init__(self, shape, dtype="float64"):
        self.shape = tuple(int(s) for s in shape)
        self.dtype = np.dtype(dtype)

    def with_shape(self, shape):
        return SymbolicTensor(shape, self.dtype)

    def __str__(self):
        dims = ", ".join(str(s) for s in self.shape)
        return f"(N, {dims}):{self.dtype}"


class ShapeChecker:
    """Symbolic walker producing diagnostics instead of activations."""

    def __init__(self, *, origin="<model>", feature_fmt=None, param_fmt=None,
                 acc_bits=INT_ACC_BITS, dsp_acc_bits=DSP_ACC_BITS):
        self.origin = origin
        self.feature_fmt = feature_fmt
        self.param_fmt = param_fmt
        self.acc_bits = acc_bits
        self.dsp_acc_bits = dsp_acc_bits
        self.diagnostics = []
        self._handlers = {
            "Conv2d": self._conv2d,
            "DepthwiseSeparableConv2d": self._dsc,
            "BatchNorm2d": self._batchnorm,
            "GroupNorm": self._identity,
            "LayerNorm": self._identity,
            "ReLU": self._identity,
            "LeakyReLU": self._identity,
            "GELU": self._identity,
            "Sigmoid": self._identity,
            "Tanh": self._identity,
            "Softmax": self._identity,
            "Identity": self._identity,
            "Dropout": self._identity,
            "MaxPool2d": self._pool,
            "AvgPool2d": self._pool,
            "GlobalAvgPool2d": self._gap,
            "AdaptiveAvgPool2d": self._adaptive_pool,
            "Flatten": self._flatten,
            "Linear": self._linear,
            "Sequential": self._sequential,
            "ODEBlock": self._odeblock,
            "ConvODEFunc": self._conv_ode_func,
            "MHSABottleneckODEFunc": self._mhsa_ode_func,
            "TimeConcatConv2d": self._time_conv,
            "TimeConcatDSC2d": self._time_conv,
            "MHSA2d": self._mhsa,
            "LinearAttention2d": self._attention_like,
            "WindowAttention2d": self._attention_like,
            "Downsample": self._downsample,
            "ODENet": self._odenet,
        }

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def report(self, path, message, *, rule=SHAPE_MISMATCH,
               severity=Severity.ERROR, suggestion=""):
        """Append one diagnostic anchored at the symbolic module *path*."""
        self.diagnostics.append(
            Diagnostic(
                path=self.origin,
                line=0,
                rule=rule,
                severity=severity,
                message=f"{path}: {message}",
                suggestion=suggestion,
            )
        )

    def opaque(self, path, module):
        self.report(
            path,
            f"cannot see through {type(module).__name__}; "
            "shape propagation stops here",
            rule=OPAQUE_MODULE,
            severity=Severity.INFO,
        )

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def visit(self, module, sym, path):
        """Propagate *sym* through *module*; None when the walk stops."""
        if sym is None:
            return None
        handler = self._handlers.get(type(module).__name__)
        if handler is None:
            self.opaque(path, module)
            return None
        return handler(module, sym, path)

    # ------------------------------------------------------------------
    # dtype / Q-format accounting
    # ------------------------------------------------------------------
    def _param_dtype(self, sym, param, path, what):
        if param is None:
            return sym.dtype
        dtype = np.asarray(param).dtype
        if dtype != sym.dtype:
            self.report(
                path,
                f"{what} dtype {dtype} mixes with activation dtype "
                f"{sym.dtype} (numpy upcasts silently; the fixed-point "
                "boundary does not)",
                rule=DTYPE_MIXING,
                suggestion="cast parameters and activations to one dtype "
                "before planning",
            )
        return np.result_type(sym.dtype, dtype)

    def _acc_check(self, path, fan_in, fmt_a, fmt_b, what):
        """Bound the worst-case accumulator width of one contraction.

        ``fan_in`` products of an ``fmt_a`` value and an ``fmt_b`` value
        are summed; each product needs ``(Wa-1) + (Wb-1)`` magnitude
        bits, the sum adds ``ceil(log2(fan_in))``, plus one sign bit.
        """
        if fmt_a is None or fmt_b is None or fan_in <= 0:
            return
        bits = (
            (fmt_a.total_bits - 1)
            + (fmt_b.total_bits - 1)
            + math.ceil(math.log2(fan_in))
            + 1
        )
        if bits > self.acc_bits:
            self.report(
                path,
                f"{what}: worst-case accumulator needs {bits} bits over "
                f"fan-in {fan_in} with formats {fmt_a}/{fmt_b} — exceeds the "
                f"{self.acc_bits}-bit integer accumulator, which wraps "
                "silently",
                rule=Q_OVERFLOW,
                suggestion="shrink the formats, split the accumulation, or "
                "rescale between partial sums",
            )
        elif bits > self.dsp_acc_bits:
            self.report(
                path,
                f"{what}: worst-case accumulator needs {bits} bits over "
                f"fan-in {fan_in} with formats {fmt_a}/{fmt_b} — exceeds a "
                f"single {self.dsp_acc_bits}-bit DSP accumulator",
                rule=Q_OVERFLOW,
                severity=Severity.WARNING,
                suggestion="expect extra DSP/LUT cost or saturation pressure "
                "at this site",
            )

    # ------------------------------------------------------------------
    # geometry primitives (shared by module and packed walks)
    # ------------------------------------------------------------------
    def _raw_conv(self, sym, path, weight, bias, stride, padding, groups):
        if len(sym.shape) != 3:
            self.report(
                path,
                f"conv expects an NCHW activation, got {sym}",
            )
            return None
        try:
            geo = shapes.conv_geometry(
                (1,) + sym.shape, weight.shape, stride, padding, groups
            )
        except ValueError as exc:
            self.report(
                path,
                f"conv geometry invalid for input {sym}, weight "
                f"{weight.shape}, stride {tuple(stride)}, padding "
                f"{tuple(padding)}, groups {groups}: {exc}",
            )
            return None
        _n, _c, _h, _w, f, cg, kh, kw, _fg, oh, ow = geo
        dtype = self._param_dtype(sym, weight, path, "weight")
        if bias is not None:
            dtype = self._param_dtype(sym, bias, path, "bias")
        self._acc_check(
            path,
            cg * kh * kw + (1 if bias is not None else 0),
            self.feature_fmt,
            self.param_fmt,
            f"conv {weight.shape[1] * groups}->{f} k{kh}x{kw}",
        )
        return SymbolicTensor((f, oh, ow), dtype)

    def _raw_pool(self, sym, path, kernel_size, stride, padding, what):
        if len(sym.shape) != 3:
            self.report(path, f"{what} expects an NCHW activation, got {sym}")
            return None
        kh, kw = kernel_size
        sh, sw = stride if stride is not None else kernel_size
        ph, pw = padding
        c, h, w = sym.shape
        try:
            oh, ow = shapes.conv_out_size(h, w, kh, kw, sh, sw, ph, pw)
        except ValueError as exc:
            self.report(path, f"{what} window does not fit {sym}: {exc}")
            return None
        return sym.with_shape((c, oh, ow))

    def _raw_linear(self, sym, path, weight, bias):
        if not sym.shape:
            self.report(path, f"linear expects a feature axis, got {sym}")
            return None
        out_f, in_f = weight.shape
        if sym.shape[-1] != in_f:
            self.report(
                path,
                f"linear expects {in_f} input features, got activation {sym}",
                suggestion="check the upstream pool/flatten geometry",
            )
            return None
        dtype = self._param_dtype(sym, weight, path, "weight")
        if bias is not None:
            dtype = self._param_dtype(sym, bias, path, "bias")
        self._acc_check(
            path,
            in_f + (1 if bias is not None else 0),
            self.feature_fmt,
            self.param_fmt,
            f"linear {in_f}->{out_f}",
        )
        return SymbolicTensor(sym.shape[:-1] + (out_f,), dtype)

    def _raw_norm_channels(self, sym, path, num_features, what):
        if len(sym.shape) != 3:
            self.report(path, f"{what} expects an NCHW activation, got {sym}")
            return None
        if sym.shape[0] != num_features:
            self.report(
                path,
                f"{what} normalises {num_features} channels but the "
                f"activation is {sym}",
            )
            return None
        return sym

    def _raw_mhsa(self, sym, path, *, channels, height, width, heads,
                  w_q, w_k, w_v, rel_shapes=None):
        if len(sym.shape) != 3:
            self.report(path, f"MHSA expects an NCHW activation, got {sym}")
            return None
        c, h, w = sym.shape
        ok = True
        if c != channels:
            self.report(
                path,
                f"MHSA is built for {channels} channels but the activation "
                f"is {sym}",
            )
            ok = False
        if (h, w) != (height, width):
            self.report(
                path,
                f"MHSA position encodings are built for {height}x{width} "
                f"feature maps but the activation is {sym}",
                suggestion="relative encodings are size-specific (BoTNet); "
                "rebuild the block for this geometry",
            )
            ok = False
        try:
            shapes.mhsa_geometry(channels, heads, height, width)
        except ValueError as exc:
            self.report(
                path,
                f"head split is mis-sized: {exc}",
                suggestion="choose heads dividing the embedding dim so "
                "D_h = D / heads is integral",
            )
            ok = False
        for name, mat in (("w_q", w_q), ("w_k", w_k), ("w_v", w_v)):
            if mat is not None and tuple(mat.shape) != (channels, channels):
                self.report(
                    path,
                    f"{name} projection has shape {tuple(mat.shape)}; "
                    f"expected ({channels}, {channels})",
                )
                ok = False
        if ok and rel_shapes is not None:
            dim_head = channels // heads
            for name, shape, expect in (
                ("rel_h", rel_shapes[0], (heads, height, dim_head)),
                ("rel_w", rel_shapes[1], (heads, width, dim_head)),
            ):
                if shape is not None and tuple(shape) != expect:
                    self.report(
                        path,
                        f"{name} table has shape {tuple(shape)}; expected "
                        f"{expect}",
                    )
                    ok = False
        if not ok:
            return None
        dim_head = channels // heads
        tokens = height * width
        for mat, what in ((w_q, "Q projection"), (w_k, "K projection"),
                          (w_v, "V projection")):
            if mat is not None:
                self._acc_check(path, channels, self.feature_fmt,
                                self.param_fmt, what)
        self._acc_check(path, dim_head, self.feature_fmt, self.feature_fmt,
                        "QK^T logits")
        self._acc_check(path, tokens, self.feature_fmt, self.feature_fmt,
                        "attention x V")
        dtype = sym.dtype
        if w_q is not None:
            dtype = self._param_dtype(sym, w_q, path, "w_q")
        return SymbolicTensor((channels, height, width), dtype)

    # ------------------------------------------------------------------
    # module handlers
    # ------------------------------------------------------------------
    def _conv2d(self, conv, sym, path):
        return self._raw_conv(
            sym, path, conv.weight.data,
            None if conv.bias is None else conv.bias.data,
            conv.stride, conv.padding, conv.groups,
        )

    def _dsc(self, dsc, sym, path):
        sym = self.visit(dsc.depthwise, sym, f"{path}.depthwise")
        return self.visit(dsc.pointwise, sym, f"{path}.pointwise")

    def _batchnorm(self, bn, sym, path):
        sym = self._raw_norm_channels(sym, path, bn.num_features, "BatchNorm2d")
        if sym is not None and bn.weight is not None:
            dtype = self._param_dtype(sym, bn.weight.data, path, "gamma")
            sym = SymbolicTensor(sym.shape, dtype)
        return sym

    def _identity(self, module, sym, path):
        return sym

    def _pool(self, pool, sym, path):
        return self._raw_pool(
            sym, path, pool.kernel_size, pool.stride, pool.padding,
            type(pool).__name__,
        )

    def _gap(self, module, sym, path):
        if len(sym.shape) != 3:
            self.report(path, f"global pool expects NCHW, got {sym}")
            return None
        return sym.with_shape((sym.shape[0],))

    def _adaptive_pool(self, pool, sym, path):
        if len(sym.shape) != 3:
            self.report(path, f"adaptive pool expects NCHW, got {sym}")
            return None
        c, h, w = sym.shape
        oh, ow = pool.output_size
        if h % oh or w % ow:
            self.report(
                path,
                f"adaptive pool to {oh}x{ow} does not divide {sym}",
            )
            return None
        return sym.with_shape((c, oh, ow))

    def _flatten(self, module, sym, path):
        # batch-free walk: start_dim=1 flattens the whole symbolic shape
        size = 1
        for s in sym.shape:
            size *= s
        return sym.with_shape((size,))

    def _linear(self, lin, sym, path):
        return self._raw_linear(
            sym, path, lin.weight.data,
            None if lin.bias is None else lin.bias.data,
        )

    def _sequential(self, seq, sym, path):
        for i, child in enumerate(seq):
            sym = self.visit(child, sym, f"{path}[{i}]")
            if sym is None:
                return None
        return sym

    def _odeblock(self, block, sym, path):
        out = self.visit(block.func, sym, f"{path}.func")
        if out is not None and out.shape != sym.shape:
            self.report(
                path,
                f"ODE dynamics map state {sym} to derivative of shape "
                f"(N, {', '.join(map(str, out.shape))}) — the solver adds "
                "z and f(t, z), so shapes must match",
                suggestion="make the dynamics shape-preserving",
            )
            return None
        return sym

    def _time_conv(self, layer, sym, path):
        if len(sym.shape) != 3:
            self.report(path, f"time-concat conv expects NCHW, got {sym}")
            return None
        c, h, w = sym.shape
        widened = sym.with_shape((c + 1, h, w))
        return self.visit(layer.conv, widened, f"{path}.conv")

    def _conv_ode_func(self, func, sym, path):
        h = self.visit(func.norm1, sym, f"{path}.norm1")
        h = self.visit(func.conv1, h, f"{path}.conv1") if h is not None else None
        if h is None:
            return None
        h = self.visit(func.norm2, h, f"{path}.norm2")
        return self.visit(func.conv2, h, f"{path}.conv2") if h is not None else None

    def _mhsa_ode_func(self, func, sym, path):
        h = self.visit(func.norm1, sym, f"{path}.norm1")
        h = self.visit(func.down, h, f"{path}.down") if h is not None else None
        h = self.visit(func.mhsa, h, f"{path}.mhsa") if h is not None else None
        h = self.visit(func.norm2, h, f"{path}.norm2") if h is not None else None
        return self.visit(func.up, h, f"{path}.up") if h is not None else None

    def _mhsa(self, mhsa, sym, path):
        rel_shapes = None
        if getattr(mhsa, "pos_enc", None) == "relative":
            rel_shapes = (
                mhsa.rel.rel_h.data.shape,
                mhsa.rel.rel_w.data.shape,
            )
        return self._raw_mhsa(
            sym, path,
            channels=mhsa.channels,
            height=mhsa.height,
            width=mhsa.width,
            heads=mhsa.heads,
            w_q=mhsa.w_q.data,
            w_k=mhsa.w_k.data,
            w_v=mhsa.w_v.data,
            rel_shapes=rel_shapes,
        )

    def _attention_like(self, attn, sym, path):
        c, h, w = sym.shape if len(sym.shape) == 3 else (None, None, None)
        if c is None:
            self.report(path, f"attention expects NCHW, got {sym}")
            return None
        channels = getattr(attn, "channels", c)
        height = getattr(attn, "height", h)
        width = getattr(attn, "width", w)
        heads = getattr(attn, "heads", 1)
        if (c, h, w) != (channels, height, width) or (
            heads <= 0 or channels % heads != 0
        ):
            return self._raw_mhsa(
                sym, path, channels=channels, height=height, width=width,
                heads=heads, w_q=None, w_k=None, w_v=None,
            )
        return sym

    def _downsample(self, down, sym, path):
        sym = self.visit(down.conv, sym, f"{path}.conv")
        return self.visit(down.bn, sym, f"{path}.bn") if sym is not None else None

    def _odenet(self, model, sym, path):
        sym = self.visit(model.stem, sym, f"{path}.stem")
        for name in ("block1", "down1", "block2", "down2", "block3"):
            if sym is None:
                return None
            sym = self.visit(getattr(model, name), sym, f"{path}.{name}")
        if sym is None:
            return None
        sym = self.visit(model.head_norm, sym, f"{path}.head_norm")
        if sym is None:
            return None
        sym = self.visit(model.pool, sym, f"{path}.pool")
        return self.visit(model.fc, sym, f"{path}.fc") if sym is not None else None


# ----------------------------------------------------------------------
# public entry points
# ----------------------------------------------------------------------

def _default_input(model):
    """Infer a (C, H, W) input for an ODENet from its stem conv."""
    stem_conv = model.stem[0]
    c_in = stem_conv.weight.data.shape[1] * stem_conv.groups
    size = getattr(model, "input_size", None)
    if size is None:
        raise ValueError(
            "cannot infer an input shape for this model; pass input_shape="
        )
    return (c_in, size, size)


def _model_dtype(model):
    """The dtype the runtime feeds the model: its own parameter dtype."""
    for p in model.parameters():
        return p.data.dtype
    return np.dtype("float64")


def _input_sym(model, input_shape, dtype):
    if input_shape is None:
        shape = _default_input(model)
    else:
        shape = tuple(input_shape)
        if len(shape) == 4:  # tolerate an explicit batch axis
            shape = shape[1:]
    if dtype is None:
        dtype = _model_dtype(model)
    return SymbolicTensor(shape, dtype)


def check_model(model, input_shape=None, *, dtype=None, origin=None,
                feature_fmt=None, param_fmt=None):
    """Statically validate *model*; returns a list of diagnostics.

    *input_shape* is ``(C, H, W)`` (a leading batch axis is tolerated and
    ignored); for the ODENet family it is inferred from the stem when
    omitted.  The activation *dtype* defaults to the model's own
    parameter dtype — the runtime casts inputs before the forward pass,
    so only an explicit override can legitimately disagree.  Passing
    ``feature_fmt``/``param_fmt`` additionally runs the Q-format
    accumulator analysis at every contraction site.
    """
    checker = ShapeChecker(
        origin=origin or f"<model:{type(model).__name__}>",
        feature_fmt=feature_fmt,
        param_fmt=param_fmt,
    )
    sym = _input_sym(model, input_shape, dtype)
    checker.visit(model, sym, "model")
    return checker.diagnostics


def check_plan(plan, input_shape=None, *, dtype=None, origin=None):
    """Statically validate a :class:`~repro.runtime.ModulePlan` — the
    float oracle — by checking the module it runs."""
    from ..runtime.engine import ModulePlan

    if isinstance(plan, ModulePlan):
        return check_model(
            plan.module, input_shape, dtype=dtype,
            origin=origin or f"<plan:{type(plan.module).__name__}>",
        )
    raise TypeError(f"cannot shape-check {type(plan).__name__}")


def check_fixed_point(model, feature_fmt, param_fmt, input_shape=None, *,
                      origin=None):
    """Q-format overflow analysis: walk *model* with the paper's
    ``(feature, parameter)`` format pair and bound every accumulator."""
    return check_model(
        model, input_shape,
        origin=origin or f"<fixed:{feature_fmt}-{param_fmt}>",
        feature_fmt=feature_fmt, param_fmt=param_fmt,
    )


def check_quantized(executor, input_shape=None):
    """Validate a :class:`~repro.fixedpoint.QuantizedODENetExecutor`:
    shape-checks its float model and bounds its accumulators under the
    executor's own ``(ffmt, pfmt)`` pair."""
    return check_fixed_point(
        executor.model, executor.ffmt, executor.pfmt, input_shape,
        origin=f"<quantized:{executor.ffmt}-{executor.pfmt}>",
    )


__all__ = [
    "SymbolicTensor",
    "ShapeChecker",
    "check_model",
    "check_plan",
    "check_fixed_point",
    "check_quantized",
    "SHAPE_MISMATCH",
    "DTYPE_MIXING",
    "Q_OVERFLOW",
    "OPAQUE_MODULE",
    "INT_ACC_BITS",
    "DSP_ACC_BITS",
]
