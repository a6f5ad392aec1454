"""QuantizedPlan — the packed fast path for fixed-point inference.

:class:`~repro.fixedpoint.QuantizedODENetExecutor` is the semantic
reference: per-layer int64 arithmetic with an explicit ``ap_fixed``
rescale after every site.  This module packs the same network into a
form that runs the whole forward on the float BLAS path **without
changing a single output bit**:

* **Scale folding.**  Every weight is pre-multiplied by the power of
  two its site's rescale would divide by (``2^-pfrac`` for convs,
  ``2^(ffrac-pfrac)`` for biases).  Power-of-two scaling only moves the
  float exponent, so the folded weights are exact and each site's
  rescale collapses to ``rint`` (IEEE round-to-nearest-even — the same
  round-half-even as ``_rescale``) plus ``clip``.
* **Float-domain carry.**  Activations stay float64 arrays of
  integer-valued raws between sites, eliminating the int64↔float
  conversions and int64 shift passes the executor pays per layer.
* **Static per-site dtypes.**  At pack time each GEMM site's worst-case
  accumulator width (:func:`~repro.fixedpoint.ops.accumulator_bits` —
  the same formula the lint overflow checker certifies) picks float32
  (≤ 24 bits), float64 (≤ 52 bits) or the exact int64 fallback, so no
  per-call bound scans run on the hot path.

Attention reuses the executor's :class:`QuantizedMHSA2d` (identical
arithmetic, shared quantized weight set); the plan runs on the
``fused`` kernels so the MHSA's integer matmuls get the data-driven
exact-BLAS rerouting.

The plan walks the model itself rather than the float compiler's IR:
that IR folds BatchNorm and the Euler step into conv weights, which
would move the fixed-point rounding points.  Bit-identity to
``QuantizedODENetExecutor.run`` is pinned per registry model and per
Q-format profile by ``tests/test_kernels.py``; the ≥5× speedup gate
lives in ``benchmarks/test_quantized_speedup.py``.
"""

from __future__ import annotations

import numpy as np

from .. import kernels
from ..models.odenet import Downsample, ODENet
from ..nn import DepthwiseSeparableConv2d
from ..ode import ConvODEFunc, MHSABottleneckODEFunc
from .ops import (
    F32_EXACT_BITS,
    F64_EXACT_BITS,
    accumulator_bits,
    div_round_half_even,
    requantize,
)
from .qformat import QFormat
from .quantized_layers import (
    fixed_bn_apply,
    fixed_conv2d,
    fixed_euler_update,
    fixed_linear,
    fold_batchnorm,
)
from .quantized_mhsa import QuantizedMHSA2d
from .quantized_model import QuantizedODENetExecutor

#: widest feature/param format the float-domain carry holds exactly
#: (with headroom for the global-sum reduction in the average pool)
_MAX_PLAN_FORMAT_BITS = 40


class QuantizedPlan:
    """Packed, scale-folded fixed-point forward for one :class:`ODENet`.

    Construct directly from ``(model, feature_fmt, param_fmt)`` or via
    :meth:`from_executor` to share an executor's already-quantized
    weight set.  Calling the plan on a float image batch returns float
    logits bit-identical to ``QuantizedODENetExecutor.run``.

    ``version`` counts weight derivations: it starts at 1 and
    :meth:`refresh` (re-pack after mutating the source model) bumps it.
    """

    def __init__(self, model: ODENet, feature_fmt: QFormat, param_fmt: QFormat,
                 *, _executor: QuantizedODENetExecutor | None = None):
        problem = self._unsupported_reason(model, feature_fmt, param_fmt)
        if problem is not None:
            raise ValueError(f"QuantizedPlan cannot pack this model: {problem}")
        self.model = model
        self.ffmt = feature_fmt
        self.pfmt = param_fmt
        self.version = 0
        self._kb = kernels.get_backend("fused")
        self._executor = _executor
        self._pack(_executor)

    # ------------------------------------------------------------------
    @classmethod
    def from_executor(cls, executor: QuantizedODENetExecutor) -> "QuantizedPlan":
        """Pack a plan around *executor*, reusing its quantized weights
        (conv/BN/MHSA caches) so the weight set is derived once."""
        return cls(executor.model, executor.ffmt, executor.pfmt,
                   _executor=executor)

    @staticmethod
    def _unsupported_reason(model, ffmt, pfmt):
        if not isinstance(model, ODENet):
            return f"expected ODENet, got {type(model).__name__}"
        if model.training:
            return "call model.eval() before packing"
        if max(ffmt.total_bits, pfmt.total_bits) > _MAX_PLAN_FORMAT_BITS:
            return (
                f"formats wider than {_MAX_PLAN_FORMAT_BITS} bits exceed the "
                "float64 carry; use QuantizedODENetExecutor directly"
            )
        for block in (model.block1, model.block2, model.block3):
            if block.solver.name != "euler":
                return f"solver {block.solver.name!r} (the plan packs Euler)"
            if not isinstance(block.func, (ConvODEFunc, MHSABottleneckODEFunc)):
                return f"dynamics {type(block.func).__name__}"
        return None

    @classmethod
    def supported(cls, executor_or_model, feature_fmt=None, param_fmt=None) -> bool:
        """Whether a plan can pack this executor (or model + formats)."""
        if isinstance(executor_or_model, QuantizedODENetExecutor):
            ex = executor_or_model
            model, feature_fmt, param_fmt = ex.model, ex.ffmt, ex.pfmt
        else:
            model = executor_or_model
        return cls._unsupported_reason(model, feature_fmt, param_fmt) is None

    # ------------------------------------------------------------------
    # pack-time site builders — each returns a closure mapping a float64
    # carry of integer-valued raws to the next carry
    # ------------------------------------------------------------------
    def _site_dtype(self, fan_in: int):
        bits = accumulator_bits(self.ffmt.total_bits, self.pfmt.total_bits, fan_in)
        if bits <= F32_EXACT_BITS:
            return np.float32
        if bits <= F64_EXACT_BITS:
            return np.float64
        return None

    def _conv_weights(self, conv, executor):
        if executor is not None:
            return executor._conv_params(conv)
        w = self.pfmt.quantize(conv.weight.data)
        b = self.pfmt.quantize(conv.bias.data) if conv.bias is not None else None
        return w, b

    def _pack_conv(self, conv, executor):
        ffmt, pfmt = self.ffmt, self.pfmt
        fmin, fmax = float(ffmt.raw_min), float(ffmt.raw_max)
        w_int, b_int = self._conv_weights(conv, executor)
        stride = tuple(conv.stride)
        padding = tuple(conv.padding)
        groups = conv.groups
        fan = w_int.shape[1] * w_int.shape[2] * w_int.shape[3]
        dt = self._site_dtype(fan + (1 if b_int is not None else 0))
        if dt is None:
            # accumulator wider than the float64 mantissa: exact int64
            # site (the fused kernels reach the same conclusion from
            # the operand bounds)
            def run(c):
                out = fixed_conv2d(
                    c.astype(np.int64), ffmt, w_int, pfmt, ffmt,
                    bias_raw=b_int, bias_fmt=pfmt, stride=stride,
                    padding=padding, groups=groups,
                )
                return out.astype(np.float64)

            return run

        wf = (w_int.astype(np.float64) * 2.0 ** -pfmt.frac_bits).astype(dt)
        bf = None
        if b_int is not None:
            bf = (
                b_int.astype(np.float64)
                * 2.0 ** (ffmt.frac_bits - pfmt.frac_bits)
            ).astype(dt).reshape(1, -1, 1, 1)
        backend = self._kb

        def run(c):
            xf = c if dt is np.float64 else c.astype(dt)
            acc = backend.conv2d(xf, wf, stride=stride, padding=padding,
                                 groups=groups)
            if bf is not None:
                acc += bf
            np.rint(acc, out=acc)
            np.clip(acc, fmin, fmax, out=acc)
            return acc.astype(np.float64) if dt is np.float32 else acc

        return run

    def _pack_bn(self, bn, executor):
        ffmt, pfmt = self.ffmt, self.pfmt
        fmin, fmax = float(ffmt.raw_min), float(ffmt.raw_max)
        if executor is not None:
            s_int, t_int = executor._bn_params(bn)
        else:
            s_int, t_int = fold_batchnorm(bn, pfmt)
        if self._site_dtype(1) is None:
            def run(c):
                out = fixed_bn_apply(c.astype(np.int64), ffmt, s_int, t_int,
                                     pfmt, ffmt)
                return out.astype(np.float64)

            return run

        sf = (s_int.astype(np.float64) * 2.0 ** -pfmt.frac_bits).reshape(1, -1, 1, 1)
        tf = requantize(t_int, pfmt, ffmt).astype(np.float64).reshape(1, -1, 1, 1)

        def run(c):
            acc = c * sf
            np.rint(acc, out=acc)
            np.clip(acc, fmin, fmax, out=acc)
            acc += tf
            np.clip(acc, fmin, fmax, out=acc)
            return acc

        return run

    def _pack_time_conv(self, layer, executor):
        """TimeConcatConv2d / TimeConcatDSC2d: append the quantized t
        plane, then the (depthwise, pointwise) or plain conv chain."""
        inner = layer.conv
        if isinstance(inner, DepthwiseSeparableConv2d):
            convs = (self._pack_conv(inner.depthwise, executor),
                     self._pack_conv(inner.pointwise, executor))
        else:
            convs = (self._pack_conv(inner, executor),)

        def run(c, t_raw):
            n, _, h, w = c.shape
            tt = np.full((n, 1, h, w), t_raw, dtype=np.float64)
            c = np.concatenate([c, tt], axis=1)
            for conv in convs:
                c = conv(c)
            return c

        return run

    def _pack_mhsa(self, mhsa, executor):
        ffmt = self.ffmt
        fmin, fmax = float(ffmt.raw_min), float(ffmt.raw_max)
        scale = ffmt.scale
        inv_scale = float(1 << ffmt.frac_bits)
        qm = (executor._mhsa(mhsa) if executor is not None
              else QuantizedMHSA2d(mhsa, ffmt, self.pfmt))

        def run(c):
            # raw -> value is an exact power-of-two scale; the quantized
            # MHSA requantises its input losslessly (same as the
            # executor's dequantize/quantize round-trip)
            out = qm.forward(c * scale)
            acc = out * inv_scale
            np.rint(acc, out=acc)
            np.clip(acc, fmin, fmax, out=acc)
            return acc

        return run

    def _pack_euler(self, h_step):
        ffmt, pfmt = self.ffmt, self.pfmt
        fmin, fmax = float(ffmt.raw_min), float(ffmt.raw_max)
        h_q = int(pfmt.quantize(np.array(h_step)))
        if self._site_dtype(1) is None:
            def run(z, f):
                out = fixed_euler_update(z.astype(np.int64), f.astype(np.int64),
                                         ffmt, h_step, pfmt)
                return out.astype(np.float64)

            return run

        hf = float(h_q) * 2.0 ** -pfmt.frac_bits

        def run(z, f):
            acc = f * hf
            np.rint(acc, out=acc)
            np.clip(acc, fmin, fmax, out=acc)
            acc += z
            np.clip(acc, fmin, fmax, out=acc)
            return acc

        return run

    def _pack_ode_block(self, block, executor):
        func = block.func
        steps = block.steps
        h_step = (block.t1 - block.t0) / steps
        euler = self._pack_euler(h_step)
        t_raws = tuple(
            float(int(self.ffmt.quantize(np.array(float(block.t0 + i * h_step)))))
            for i in range(steps)
        )
        bn1 = self._pack_bn(func.norm1, executor)
        bn2 = self._pack_bn(func.norm2, executor)
        if isinstance(func, ConvODEFunc):
            tc1 = self._pack_time_conv(func.conv1, executor)
            tc2 = self._pack_time_conv(func.conv2, executor)

            def dynamics(t_raw, z):
                h = bn1(z)
                np.maximum(h, 0.0, out=h)
                h = tc1(h, t_raw)
                h = bn2(h)
                np.maximum(h, 0.0, out=h)
                return tc2(h, t_raw)
        else:
            tc_down = self._pack_time_conv(func.down, executor)
            tc_up = self._pack_time_conv(func.up, executor)
            mhsa = self._pack_mhsa(func.mhsa, executor)

            def dynamics(t_raw, z):
                h = bn1(z)
                np.maximum(h, 0.0, out=h)
                h = tc_down(h, t_raw)
                h = mhsa(h)
                h = bn2(h)
                np.maximum(h, 0.0, out=h)
                return tc_up(h, t_raw)

        def run(z):
            for t_raw in t_raws:
                z = euler(z, dynamics(t_raw, z))
            return z

        return run

    def _pack_head(self, executor):
        ffmt, pfmt = self.ffmt, self.pfmt
        model = self.model
        if executor is not None:
            fc_w, fc_b = executor._fc_w, executor._fc_b
        else:
            fc_w = pfmt.quantize(model.fc.weight.data)
            fc_b = (pfmt.quantize(model.fc.bias.data)
                    if model.fc.bias is not None else None)
        fmin, fmax = float(ffmt.raw_min), float(ffmt.raw_max)
        imin, imax = ffmt.raw_min, ffmt.raw_max
        fan = fc_w.shape[1]
        dt = self._site_dtype(fan + (1 if fc_b is not None else 0))
        if dt is None:
            def linear(c):
                out = fixed_linear(c.astype(np.int64), ffmt, fc_w, pfmt, ffmt,
                                   bias_raw=fc_b, bias_fmt=pfmt)
                return out.astype(np.float64)
        else:
            wf = (fc_w.astype(np.float64) * 2.0 ** -pfmt.frac_bits).astype(dt)
            bf = None
            if fc_b is not None:
                bf = (
                    fc_b.astype(np.float64)
                    * 2.0 ** (ffmt.frac_bits - pfmt.frac_bits)
                ).astype(dt)

            def linear(c):
                xf = c if dt is np.float64 else c.astype(dt)
                acc = xf @ wf.T
                if bf is not None:
                    acc += bf
                np.rint(acc, out=acc)
                np.clip(acc, fmin, fmax, out=acc)
                return acc.astype(np.float64) if dt is np.float32 else acc

        def run(c):
            # exact integer average pool: sum is exact in the float64
            # carry (format gate leaves mantissa headroom), the
            # round-half-even division runs in the integer domain
            n_spatial = c.shape[2] * c.shape[3]
            acc = c.sum(axis=(2, 3)).astype(np.int64)
            pooled = np.clip(div_round_half_even(acc, n_spatial), imin, imax)
            return linear(pooled.astype(np.float64))

        return run

    # ------------------------------------------------------------------
    def _pack(self, executor):
        """Derive the quantized weight set and build the stage pipeline."""
        m = self.model
        stem = list(m.stem)
        pool = stem[3]
        stem_conv = self._pack_conv(stem[0], executor)
        stem_bn = self._pack_bn(stem[1], executor)
        pool_args = (tuple(pool.kernel_size),
                     None if pool.stride is None else tuple(pool.stride),
                     tuple(pool.padding))
        backend = self._kb

        def stem_stage(c):
            c = stem_bn(stem_conv(c))
            np.maximum(c, 0.0, out=c)
            return backend.maxpool2d(c, pool_args[0], pool_args[1], pool_args[2])

        def downsample(ds):
            conv = self._pack_conv(ds.conv, executor)
            bn = self._pack_bn(ds.bn, executor)

            def run(c):
                c = bn(conv(c))
                np.maximum(c, 0.0, out=c)
                return c

            return run

        head_bn = self._pack_bn(m.head_norm, executor)
        head = self._pack_head(executor)

        def head_stage(c):
            c = head_bn(c)
            np.maximum(c, 0.0, out=c)
            return head(c)

        self._stages = (
            stem_stage,
            self._pack_ode_block(m.block1, executor),
            downsample(m.down1),
            self._pack_ode_block(m.block2, executor),
            downsample(m.down2),
            self._pack_ode_block(m.block3, executor),
            head_stage,
        )
        self.version += 1

    def refresh(self) -> None:
        """Re-quantize from the (possibly mutated) source model weights
        and bump :attr:`version`.  An executor shared at construction
        re-derives its weight set too, so plan and executor keep
        agreeing."""
        if self._executor is not None:
            self._executor.refresh()
        self._pack(self._executor)

    # ------------------------------------------------------------------
    def run(self, images: np.ndarray) -> np.ndarray:
        """Fixed-point forward; float logits, bit-identical to
        ``QuantizedODENetExecutor.run`` on the same model and formats."""
        ffmt = self.ffmt
        fmin, fmax = float(ffmt.raw_min), float(ffmt.raw_max)
        with kernels.use_backend("fused"):
            c = np.asarray(images, dtype=np.float64) * float(1 << ffmt.frac_bits)
            c = np.clip(np.rint(c), fmin, fmax)
            for stage in self._stages:
                c = stage(c)
        return c * ffmt.scale

    __call__ = run

    def __repr__(self):
        return (
            f"QuantizedPlan({type(self.model).__name__}, "
            f"{self.ffmt}-{self.pfmt}, version={self.version})"
        )


__all__ = ["QuantizedPlan"]
