"""Fixed-point arithmetic kernels in the integer domain.

All functions take/return int64 *raw* arrays tagged with their
:class:`~repro.fixedpoint.QFormat`.  Products and accumulations run at
full int64 width (the HLS kernel uses wide accumulators the same way);
results are rescaled into the output format with round-half-even and
saturation — the two operations that create the quantisation error
measured in Table VIII and Figs 9-10.
"""

from __future__ import annotations

import math

import numpy as np

from .. import kernels
from .qformat import QFormat

#: integer magnitudes below 2^24 / 2^53 are exactly representable in
#: float32 / float64 — the bound the ``fused`` backend and the
#: fixed-point lowering (:func:`repro.compile.ir.lower_fixed`) use to
#: decide when an integer GEMM may run on the float BLAS path and stay
#: bit-exact.
F32_EXACT_BITS = 24
F64_EXACT_BITS = 52


def accumulator_bits(a_total_bits: int, b_total_bits: int, fan_in: int) -> int:
    """Worst-case accumulator width of one contraction, in bits.

    ``fan_in`` products of an ``a_total_bits``-wide value and a
    ``b_total_bits``-wide value are summed: each product needs
    ``(Wa-1) + (Wb-1)`` magnitude bits, the sum adds
    ``ceil(log2(fan_in))``, plus one sign bit.  This is the single
    formula behind the lint overflow checker (SHP003) and the
    fixed-point lowering's per-site float32/float64 choice
    (:func:`repro.compile.ir.lower_fixed`) — change it here or not at
    all.
    """
    if fan_in <= 0:
        return 0
    return (a_total_bits - 1) + (b_total_bits - 1) + math.ceil(math.log2(fan_in)) + 1


def _rescale(raw: np.ndarray, from_frac: int, to_fmt: QFormat) -> np.ndarray:
    """Shift raw values from ``from_frac`` fractional bits into *to_fmt*,
    rounding half-to-even, then saturate.

    The right-shift path is a fused four-pass formula,
    ``(raw + (half - 1) + quotient_lsb) >> shift``: adding ``half - 1``
    rounds remainders strictly above the halfway point up, and adding
    the pre-shift quotient's LSB breaks exact ties toward the even
    quotient.  It needs one LSB of headroom below ``2^63`` — guaranteed
    for any accumulator the overflow checker certifies (≤ 64 bits) —
    and matches the scalar round-half-even oracle pinned by
    ``tests/test_fixedpoint_properties.py`` for negative raws too,
    because ``>>`` on int64 is an arithmetic (floor) shift.
    """
    shift = from_frac - to_fmt.frac_bits
    if shift == 0:
        out = raw
    elif shift < 0:
        out = raw << (-shift)
    else:
        half = np.int64(1) << (shift - 1)
        out = raw >> shift
        out &= 1
        out += raw
        out += half - 1
        out >>= shift
    return to_fmt.saturate(out)


def div_round_half_even(num: np.ndarray, den: int) -> np.ndarray:
    """Exact integer ``round-half-even(num / den)`` for ``den > 0``.

    The integer analogue of ``np.rint(num / den)`` that never leaves
    the integer domain (``np.rint`` on a float quotient can mis-round
    once the numerator outgrows the float64 mantissa).  Used by the
    average-pool and LayerNorm mean reductions, whose divisors are not
    powers of two.
    """
    num = np.asarray(num, dtype=np.int64)
    quotient = num // den  # floor division: remainder below is in [0, den)
    remainder2 = (num - quotient * den) << 1
    round_up = (remainder2 > den) | ((remainder2 == den) & ((quotient & 1) == 1))
    return quotient + round_up.astype(np.int64)


def requantize(raw: np.ndarray, from_fmt: QFormat, to_fmt: QFormat) -> np.ndarray:
    """Convert raw values between formats (an ``ap_fixed`` cast)."""
    return _rescale(np.asarray(raw, dtype=np.int64), from_fmt.frac_bits, to_fmt)


def fixed_matmul(a_raw, a_fmt: QFormat, b_raw, b_fmt: QFormat,
                 out_fmt: QFormat) -> np.ndarray:
    """``a @ b`` with int64 accumulation, output in *out_fmt*.

    Overflow note: with the paper's widest formats (32-bit features x
    24-bit params) products are ≤ 2^55 and the accumulation depth in the
    MHSA block is ≤ 512, keeping sums within int64.
    """
    a = np.asarray(a_raw, dtype=np.int64)
    b = np.asarray(b_raw, dtype=np.int64)
    acc = kernels.matmul(a, b)  # exact in int64 under every backend
    return _rescale(acc, a_fmt.frac_bits + b_fmt.frac_bits, out_fmt)


def fixed_mul(a_raw, a_fmt: QFormat, b_raw, b_fmt: QFormat,
              out_fmt: QFormat) -> np.ndarray:
    """Element-wise product with rescale into *out_fmt*."""
    acc = np.asarray(a_raw, dtype=np.int64) * np.asarray(b_raw, dtype=np.int64)
    return _rescale(acc, a_fmt.frac_bits + b_fmt.frac_bits, out_fmt)


def fixed_add(a_raw, a_fmt: QFormat, b_raw, b_fmt: QFormat,
              out_fmt: QFormat) -> np.ndarray:
    """Element-wise sum; operands are aligned to the wider fraction first."""
    frac = max(a_fmt.frac_bits, b_fmt.frac_bits)
    a = np.asarray(a_raw, dtype=np.int64) << (frac - a_fmt.frac_bits)
    b = np.asarray(b_raw, dtype=np.int64) << (frac - b_fmt.frac_bits)
    return _rescale(a + b, frac, out_fmt)


def fixed_relu(raw: np.ndarray) -> np.ndarray:
    """ReLU is format-preserving: max(0, x). One comparator + one mux in
    hardware — the reason the paper swaps softmax for ReLU (Sec. V-A)."""
    return np.maximum(np.asarray(raw, dtype=np.int64), 0)


def fixed_scale(raw, fmt: QFormat, constant: float, const_fmt: QFormat,
                out_fmt: QFormat) -> np.ndarray:
    """Multiply by a compile-time constant quantised in *const_fmt*
    (e.g. the 1/sqrt(D_h) attention scaling)."""
    c = const_fmt.quantize(np.array(constant))
    acc = np.asarray(raw, dtype=np.int64) * int(c)
    return _rescale(acc, fmt.frac_bits + const_fmt.frac_bits, out_fmt)
