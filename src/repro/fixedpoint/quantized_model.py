"""Full-model fixed-point inference for the ODENet family.

Executes an entire (trained, eval-mode) :class:`~repro.models.ODENet` —
plain or proposed — in the integer domain: every convolution, folded
batch-norm, Euler update, the MHSA block and the classifier head.  This
is the functional model of the paper's stated future work, running the
*whole* network on the PL instead of only MHSA.

Weight quantisation happens once at construction (the bitstream-build
step); activations are cast to the feature format after every layer,
exactly where a hardware datapath would register them.  With the whole
network quantised, the accuracy-vs-format experiment (Table VIII)
extends end-to-end and exhibits the paper's sharp collapse at narrow
formats, because quantisation error now compounds across all
3C + 2 blocks instead of a single MHSA.
"""

from __future__ import annotations

import numpy as np

from ..models.odenet import Downsample, ODENet
from ..nn import BatchNorm2d, Conv2d, DepthwiseSeparableConv2d, MHSA2d
from ..ode import ConvODEFunc, MHSABottleneckODEFunc, ODEBlock
from ..ode.odeblock import TimeConcatConv2d, TimeConcatDSC2d
from .qformat import QFormat
from .quantized_layers import (
    fixed_bn_apply,
    fixed_conv2d,
    fixed_euler_update,
    fixed_global_avgpool,
    fixed_linear,
    fixed_maxpool2d,
    fold_batchnorm,
)
from .quantized_mhsa import QuantizedMHSA2d


class QuantizedODENetExecutor:
    """Bit-accurate fixed-point inference of an :class:`ODENet`.

    Parameters
    ----------
    model:
        a *trained* ODENet in eval mode (running BN statistics are
        folded into fixed-point scale/shift pairs at construction).
    feature_fmt, param_fmt:
        activation and parameter formats, e.g.
        ``parse_format_pair("32(16)-24(8)")``.
    """

    def __init__(self, model: ODENet, feature_fmt: QFormat, param_fmt: QFormat):
        if not isinstance(model, ODENet):
            raise TypeError(f"expected ODENet, got {type(model).__name__}")
        if model.training:
            raise ValueError("call model.eval() before quantising")
        for name in ("block1", "block2", "block3"):
            func = getattr(model, name).func
            if not isinstance(func, MHSABottleneckODEFunc):
                continue
            if not isinstance(func.mhsa, MHSA2d):
                raise NotImplementedError(
                    f"{name}: fixed-point attention runs MHSA2d, got "
                    f"{type(func.mhsa).__name__}"
                )
            if func.mhsa.pos_enc == "absolute":
                raise NotImplementedError(
                    f"{name}: the fixed-point MHSA implements relative or "
                    "no position encoding, got 'absolute'"
                )
        self.model = model
        self.ffmt = feature_fmt
        self.pfmt = param_fmt
        self.refresh()

    def refresh(self) -> None:
        """Re-quantize from the (possibly mutated) model weights: the
        cached conv/BN/MHSA parameters are dropped (and re-derived on
        next use) and the head is re-quantized now."""
        fc = self.model.fc
        self._conv_cache = {}
        self._bn_cache = {}
        self._mhsa_cache = {}
        self._fc_w = self.pfmt.quantize(fc.weight.data)
        self._fc_b = (
            self.pfmt.quantize(fc.bias.data) if fc.bias is not None else None
        )

    # ------------------------------------------------------------------
    # cached parameter quantisation
    # ------------------------------------------------------------------
    def _conv_params(self, conv: Conv2d):
        key = id(conv)
        if key not in self._conv_cache:
            w = self.pfmt.quantize(conv.weight.data)
            b = (
                self.pfmt.quantize(conv.bias.data)
                if conv.bias is not None else None
            )
            self._conv_cache[key] = (w, b)
        return self._conv_cache[key]

    def _bn_params(self, bn: BatchNorm2d):
        key = id(bn)
        if key not in self._bn_cache:
            self._bn_cache[key] = fold_batchnorm(bn, self.pfmt)
        return self._bn_cache[key]

    def _mhsa(self, mhsa):
        key = id(mhsa)
        if key not in self._mhsa_cache:
            self._mhsa_cache[key] = QuantizedMHSA2d(mhsa, self.ffmt, self.pfmt)
        return self._mhsa_cache[key]

    # ------------------------------------------------------------------
    # layer executors (raw int64 in / raw int64 out)
    # ------------------------------------------------------------------
    def _run_conv(self, conv: Conv2d, x):
        w, b = self._conv_params(conv)
        return fixed_conv2d(
            x, self.ffmt, w, self.pfmt, self.ffmt, bias_raw=b,
            bias_fmt=self.pfmt, stride=conv.stride, padding=conv.padding,
            groups=conv.groups,
        )

    def _run_dsc(self, dsc: DepthwiseSeparableConv2d, x):
        return self._run_conv(dsc.pointwise, self._run_conv(dsc.depthwise, x))

    def _run_bn(self, bn: BatchNorm2d, x):
        scale, shift = self._bn_params(bn)
        return fixed_bn_apply(x, self.ffmt, scale, shift, self.pfmt, self.ffmt)

    def _run_time_conv(self, layer, t, x):
        """TimeConcatConv2d / TimeConcatDSC2d with quantised t channel."""
        n, _, h, w = x.shape
        t_raw = int(self.ffmt.quantize(np.array(float(t))))
        tt = np.full((n, 1, h, w), t_raw, dtype=np.int64)
        xt = np.concatenate([x, tt], axis=1)
        inner = layer.conv
        if isinstance(inner, DepthwiseSeparableConv2d):
            return self._run_dsc(inner, xt)
        return self._run_conv(inner, xt)

    def _run_conv_dynamics(self, func: ConvODEFunc, t, z):
        h = self._run_time_conv(func.conv1, t, np.maximum(self._run_bn(func.norm1, z), 0))
        return self._run_time_conv(func.conv2, t, np.maximum(self._run_bn(func.norm2, h), 0))

    def _run_mhsa_dynamics(self, func: MHSABottleneckODEFunc, t, z):
        h = self._run_time_conv(func.down, t, np.maximum(self._run_bn(func.norm1, z), 0))
        # raw -> float is exact for representable values; the quantised
        # MHSA re-quantises its input losslessly.
        h_float = self.ffmt.dequantize(h).reshape(h.shape).astype(np.float64)
        m_out = self._mhsa(func.mhsa).forward(h_float)
        h = self.ffmt.quantize(m_out)
        return self._run_time_conv(func.up, t, np.maximum(self._run_bn(func.norm2, h), 0))

    def _run_ode_block(self, block: ODEBlock, z):
        if block.solver.name != "euler":
            raise NotImplementedError(
                "full-model fixed-point execution supports Euler (the "
                f"paper's deployed solver), got {block.solver.name!r}"
            )
        steps = block.steps
        h = (block.t1 - block.t0) / steps
        func = block.func
        for i in range(steps):
            t = block.t0 + i * h
            if isinstance(func, ConvODEFunc):
                f = self._run_conv_dynamics(func, t, z)
            elif isinstance(func, MHSABottleneckODEFunc):
                f = self._run_mhsa_dynamics(func, t, z)
            else:
                raise NotImplementedError(type(func).__name__)
            z = fixed_euler_update(z, f, self.ffmt, h, self.pfmt)
        return z

    def _run_downsample(self, ds: Downsample, x):
        return np.maximum(self._run_bn(ds.bn, self._run_conv(ds.conv, x)), 0)

    # ------------------------------------------------------------------
    def run(self, images: np.ndarray) -> np.ndarray:
        """Fixed-point forward; returns float logits (N, classes)."""
        m = self.model
        x = self.ffmt.quantize(np.asarray(images, dtype=np.float64))

        # stem: conv -> BN -> ReLU -> maxpool
        stem = list(m.stem)
        x = self._run_conv(stem[0], x)
        x = np.maximum(self._run_bn(stem[1], x), 0)
        x = fixed_maxpool2d(
            x, stem[3].kernel_size, stem[3].stride, stem[3].padding
        )

        x = self._run_ode_block(m.block1, x)
        x = self._run_downsample(m.down1, x)
        x = self._run_ode_block(m.block2, x)
        x = self._run_downsample(m.down2, x)
        x = self._run_ode_block(m.block3, x)

        x = np.maximum(self._run_bn(m.head_norm, x), 0)
        x = fixed_global_avgpool(x, self.ffmt)
        logits = fixed_linear(
            x, self.ffmt, self._fc_w, self.pfmt, self.ffmt,
            bias_raw=self._fc_b, bias_fmt=self.pfmt,
        )
        return self.ffmt.dequantize(logits)

    __call__ = run


def full_model_quant_accuracy(model: ODENet, images, labels, format_pairs):
    """Accuracy of end-to-end fixed-point inference per format pair.

    The full-network analogue of Table VIII; returns rows with
    'format' and 'accuracy' (%).
    """
    from .qformat import parse_format_pair

    labels = np.asarray(labels)
    rows = []
    for pair in format_pairs:
        ffmt, pfmt = parse_format_pair(pair)
        executor = QuantizedODENetExecutor(model, ffmt, pfmt)
        logits = executor.run(images)
        acc = float(np.mean(np.argmax(logits, axis=-1) == labels))
        rows.append({"format": pair, "accuracy": acc * 100})
    return rows
