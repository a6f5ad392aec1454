"""Fixed-point rules: the integer domain stays integer.

``QNT001`` guards the bit-exactness contract of
:mod:`repro.fixedpoint`: the ``fixed_*`` kernels (and the rescale
helpers they are built on) operate on int64 raw values and must never
route through a float intermediate.  A float detour — true division,
``np.rint`` on a quotient, an ``astype(np.float64)`` cast, a
``float(...)`` coercion — silently re-introduces the rounding behaviour
the whole package exists to model away: a float64 mantissa cannot
represent every 64-bit accumulator, so ``np.rint(acc / n)`` can
mis-round exactly where a hardware divider would not.  The integer
spellings exist for every banned pattern (``>>`` shifts with the
round-half-even fixup in ``_rescale``,
:func:`~repro.fixedpoint.ops.div_round_half_even` for mean/average
reductions), and the ``fused`` backend's exact float-BLAS rerouting
lives *behind* the kernel seam where the mantissa bound is checked —
not in these bodies.

Scope: module-level functions named ``fixed_*`` (plus ``_rescale`` /
``div_round_half_even``) in files under ``fixedpoint/``.  Conversion
helpers that legitimately touch floats at the quantisation boundary
(``QFormat.quantize``, ``fold_batchnorm``) are outside it by design.
"""

from __future__ import annotations

import ast

from .diagnostics import Severity
from .rules import NumpyNamespace, Rule, dotted_parts, register

#: kernel-scope helper names that are integer-domain but not ``fixed_*``
_EXTRA_KERNELS = frozenset({"_rescale", "div_round_half_even"})

#: numpy calls that round/coerce through floats
_FLOAT_ROUNDERS = frozenset({"rint", "round", "around", "round_"})

#: dtype spellings that make an ``astype``/constructor a float cast
_FLOAT_DTYPES = frozenset({
    "float", "float16", "float32", "float64", "half", "single", "double",
})


def _is_kernel(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
        node.name.startswith("fixed_") or node.name in _EXTRA_KERNELS
    )


def _names_float_dtype(node, ns) -> bool:
    """True when *node* (an astype/constructor argument) spells a float
    dtype: ``float``, ``np.float64``, ``"float32"``, ``np.dtype(...)``."""
    if isinstance(node, ast.Name):
        return node.id in _FLOAT_DTYPES
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str) and node.value in _FLOAT_DTYPES
    parts = dotted_parts(node)
    if parts and len(parts) == 2 and parts[0] in ns.numpy_names:
        return parts[1] in _FLOAT_DTYPES
    return False


@register
class QuantFloatIntermediateRule(Rule):
    """Fixed-point kernel bodies never leave the integer domain: no true
    division, no float rounding calls, no float casts — the rounding
    they would introduce is exactly what ``_rescale`` /
    ``div_round_half_even`` are specified to avoid."""

    id = "QNT001"
    name = "quant-float-intermediate"
    severity = Severity.ERROR
    domains = ("library",)
    description = "fixedpoint/ kernel bodies must stay in the integer domain"

    def check(self, src):
        if not src.rel.startswith("fixedpoint/"):
            return
        ns = NumpyNamespace(src.tree)
        for func in ast.walk(src.tree):
            if not _is_kernel(func):
                continue
            for node in ast.walk(func):
                yield from self._check_node(src, func, node, ns)

    def _check_node(self, src, func, node, ns):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            yield self.diag(
                src, node,
                f"{func.name}: true division produces a float "
                "intermediate in a fixed-point kernel",
                suggestion="use // with an explicit rounding fixup, or "
                "div_round_half_even for round-half-even quotients",
            )
            return
        if not isinstance(node, ast.Call):
            return
        np_call = ns.numpy_call(node)
        if np_call in _FLOAT_ROUNDERS:
            yield self.diag(
                src, node,
                f"{func.name}: np.{np_call} rounds through a float "
                "intermediate in a fixed-point kernel",
                suggestion="stay on int64 raws: shift-based _rescale or "
                "div_round_half_even already round half-to-even exactly",
            )
            return
        if isinstance(node.func, ast.Name) and node.func.id == "float":
            yield self.diag(
                src, node,
                f"{func.name}: float() coercion in a fixed-point kernel",
                suggestion="keep the value as an int64 raw",
            )
            return
        is_float_cast = (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "astype"
            and node.args
            and _names_float_dtype(node.args[0], ns)
        )
        np_parts = dotted_parts(node.func) if isinstance(
            node.func, ast.Attribute) else None
        is_float_ctor = (
            np_parts is not None
            and len(np_parts) == 2
            and np_parts[0] in ns.numpy_names
            and np_parts[1] in _FLOAT_DTYPES
        )
        if is_float_cast or is_float_ctor:
            yield self.diag(
                src, node,
                f"{func.name}: float cast in a fixed-point kernel",
                suggestion="fixed-point kernels take and return int64 "
                "raws; do any float conversion at the QFormat boundary",
            )


__all__ = ["QuantFloatIntermediateRule"]
