"""Bit-accurate fixed-point (Q-format) arithmetic.

The paper's FPGA implementation stores feature maps in a
``F_total(F_int)`` two's-complement format and weights in a narrower
``P_total(P_int)`` format (Sec. V-B1, Table VIII).  This package
reproduces that arithmetic exactly in the *integer domain*: quantised
tensors are int64 raw values with an associated :class:`QFormat`;
products/accumulations run at full 64-bit precision and are rescaled
with round-half-even + saturation, just like the ``ap_fixed`` casts in
the HLS kernel.

Notation helper: :func:`parse_format_pair` understands the paper's
``"32(16)-24(8)"`` strings.
"""

from .analysis import error_statistics, sweep_formats
from .ops import (
    accumulator_bits,
    div_round_half_even,
    fixed_add,
    fixed_matmul,
    fixed_mul,
    fixed_relu,
    fixed_scale,
    requantize,
)
from .qat import QATMHSA2d, fake_quantize, prepare_qat
from .qformat import PAPER_FORMATS, QFormat, parse_format_pair
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
from .quantized_model import QuantizedODENetExecutor, full_model_quant_accuracy

__all__ = [
    "QFormat",
    "parse_format_pair",
    "PAPER_FORMATS",
    "fixed_matmul",
    "fixed_add",
    "fixed_mul",
    "fixed_relu",
    "fixed_scale",
    "requantize",
    "accumulator_bits",
    "div_round_half_even",
    "QuantizedMHSA2d",
    "fake_quantize",
    "prepare_qat",
    "QATMHSA2d",
    "QuantizedODENetExecutor",
    "full_model_quant_accuracy",
    "fixed_conv2d",
    "fixed_bn_apply",
    "fixed_linear",
    "fixed_maxpool2d",
    "fixed_global_avgpool",
    "fixed_euler_update",
    "fold_batchnorm",
    "error_statistics",
    "sweep_formats",
]
