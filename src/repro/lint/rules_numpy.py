"""Numpy discipline and kernel-seam rules.

These encode the invariants that keep the repo deterministic and keep
:mod:`repro.kernels` the single dispatch seam under all hot math:

* ``RNG001`` — library code never touches numpy's global RNG;
* ``HOT001`` — raw numpy contractions (``matmul``/``dot``/``einsum``/
  ``tensordot``/...) are confined to ``repro/kernels``;
* ``SEAM002`` — the conv output-size formula lives only in
  ``repro.kernels.shapes.conv_out_size``;
* ``SEAM003`` — strided-patch extraction (``as_strided``) lives only in
  ``repro.kernels.shapes``;
* ``SEAM004`` — the designated consumer layers must import the seam.

They are the AST-accurate successors of the regex gates that used to
live in ``tests/test_codebase_quality.py``: aliased imports
(``import numpy.random as nr``) and call context are resolved, and every
finding carries a file:line diagnostic.
"""

from __future__ import annotations

import ast

from .diagnostics import Severity
from .rules import NumpyNamespace, Rule, dotted_parts, register

#: stateless constructors that are fine to reach via ``np.random``
ALLOWED_RNG_ATTRS = frozenset(
    {"default_rng", "Generator", "SeedSequence", "BitGenerator"}
)

#: raw-numpy contractions that must route through ``repro.kernels``
HOT_NUMPY_CALLS = frozenset(
    {"matmul", "dot", "einsum", "tensordot", "inner", "vdot"}
)

#: modules sitting directly on the kernel seam (package-relative paths)
SEAM_CONSUMERS = (
    "tensor/ops_matmul.py",
    "tensor/ops_conv.py",
    "nn/functional.py",
    "fixedpoint/ops.py",
    "fixedpoint/quantized_layers.py",
)


def _in_kernels(src) -> bool:
    # repro/compile is the kernel seam's compiled twin: its step bodies
    # ARE the kernels (alias-planned ufunc/GEMM programs), and routing
    # them back through the dispatchers would defeat the fusion.  Its
    # own discipline is enforced by CMP001 instead.
    return src.rel.startswith(("kernels/", "compile/"))


@register
class GlobalNumpyRNGRule(Rule):
    """Library code must use explicit Generators, never ``np.random.X``.

    ``np.random.default_rng`` / ``Generator`` / ``SeedSequence`` are
    stateless constructors and stay allowed; everything else mutates or
    reads hidden global state and breaks end-to-end determinism.
    """

    id = "RNG001"
    name = "global-numpy-rng"
    severity = Severity.ERROR
    domains = ("library",)
    description = "no global numpy RNG in library code"

    def check(self, src):
        ns = NumpyNamespace(src.tree)
        for node in ast.walk(src.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
                for alias in node.names:
                    if alias.name not in ALLOWED_RNG_ATTRS:
                        yield self.diag(
                            src,
                            node,
                            f"'from numpy.random import {alias.name}' pulls in "
                            "the global RNG",
                            suggestion="take an explicit numpy.random.Generator "
                            "(np.random.default_rng(seed)) as an argument",
                        )
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Attribute):
                continue
            attr = ns.random_attr(node)
            if attr is not None and attr not in ALLOWED_RNG_ATTRS:
                yield self.diag(
                    src,
                    node,
                    f"global numpy RNG call np.random.{attr}",
                    suggestion="thread an explicit numpy.random.Generator "
                    "(np.random.default_rng(seed)) through instead",
                )


@register
class RawNumpyHotPathRule(Rule):
    """Array contractions outside ``repro/kernels`` bypass the dispatch
    seam — backend selection, parity pins and instrumentation all stop
    working for that call site."""

    id = "HOT001"
    name = "raw-numpy-hot-path"
    severity = Severity.ERROR
    domains = ("library",)
    description = "numpy contractions must route through repro.kernels"

    def check(self, src):
        if _in_kernels(src):
            return
        ns = NumpyNamespace(src.tree)
        for node in ast.walk(src.tree):
            name = ns.numpy_call(node)
            if name in HOT_NUMPY_CALLS:
                yield self.diag(
                    src,
                    node,
                    f"raw np.{name} call outside repro.kernels",
                    suggestion="dispatch through repro.kernels (kernels.matmul, "
                    "kernels.linear, ...) so backends and instrumentation see it",
                )


@register
class OutSizeFormulaRule(Rule):
    """The conv/pool output-size arithmetic ``(x + 2*p - k) // s + 1``
    may only live in :func:`repro.kernels.shapes.conv_out_size`; private
    copies drift (off-by-ones between estimators and kernels)."""

    id = "SEAM002"
    name = "out-size-formula-outside-shapes"
    severity = Severity.ERROR
    domains = ("library",)
    description = "conv output-size formula only in kernels/shapes.py"

    def check(self, src):
        if src.rel == "kernels/shapes.py":
            return
        for node in ast.walk(src.tree):
            if self._is_out_size_formula(node):
                yield self.diag(
                    src,
                    node,
                    "inlined conv/pool output-size formula",
                    suggestion="use repro.kernels.shapes.conv_out_size "
                    "(strict=False for estimator walks)",
                )

    @staticmethod
    def _is_out_size_formula(node) -> bool:
        # shape: BinOp(Add, left=BinOp(FloorDiv, left=<expr with 2*p>), right=1)
        if not (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Add)
            and isinstance(node.right, ast.Constant)
            and node.right.value == 1
            and isinstance(node.left, ast.BinOp)
            and isinstance(node.left.op, ast.FloorDiv)
        ):
            return False
        numerator = node.left.left
        has_sub = False
        has_double = False
        for sub in ast.walk(numerator):
            if isinstance(sub, ast.BinOp):
                if isinstance(sub.op, ast.Sub):
                    has_sub = True
                elif isinstance(sub.op, ast.Mult):
                    for side in (sub.left, sub.right):
                        if isinstance(side, ast.Constant) and side.value == 2:
                            has_double = True
        return has_sub and has_double


@register
class StridedPatchesRule(Rule):
    """``np.lib.stride_tricks.as_strided`` (and re-implementations of
    ``as_strided_patches``) belong to ``repro.kernels.shapes`` alone —
    the aliasing rules are subtle enough to audit in exactly one place."""

    id = "SEAM003"
    name = "strided-patches-outside-shapes"
    severity = Severity.ERROR
    domains = ("library",)
    description = "as_strided only in kernels/shapes.py"

    def check(self, src):
        if src.rel == "kernels/shapes.py":
            return
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Attribute) and node.attr == "as_strided":
                yield self.diag(
                    src, node, "as_strided outside repro.kernels.shapes",
                    suggestion="use repro.kernels.shapes.as_strided_patches",
                )
            elif (
                isinstance(node, ast.ImportFrom)
                and node.module
                and node.module.endswith("stride_tricks")
            ):
                yield self.diag(
                    src, node, "stride_tricks import outside repro.kernels.shapes",
                    suggestion="use repro.kernels.shapes.as_strided_patches",
                )
            elif (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name == "as_strided_patches"
            ):
                yield self.diag(
                    src, node, "private as_strided_patches re-implementation",
                    suggestion="import it from repro.kernels.shapes",
                )


@register
class KernelSeamImportRule(Rule):
    """The consumer layers sitting directly on the kernel seam must
    import it (``from .. import kernels``) — if the import disappears,
    a private compute path has almost certainly been reintroduced."""

    id = "SEAM004"
    name = "consumer-must-import-kernels"
    severity = Severity.ERROR
    domains = ("library",)
    description = "seam consumer modules must import repro.kernels"

    def check(self, src):
        if src.rel not in SEAM_CONSUMERS:
            return
        for node in ast.walk(src.tree):
            if isinstance(node, ast.ImportFrom):
                if node.module is None and any(
                    a.name == "kernels" for a in node.names
                ):
                    return
                if node.module in ("repro",) and any(
                    a.name == "kernels" for a in node.names
                ):
                    return
            elif isinstance(node, ast.Import):
                if any(a.name == "repro.kernels" for a in node.names):
                    return
        yield self.diag(
            src,
            1,
            "seam consumer does not import repro.kernels",
            suggestion="route array math through 'from .. import kernels'",
        )


__all__ = [
    "ALLOWED_RNG_ATTRS",
    "HOT_NUMPY_CALLS",
    "SEAM_CONSUMERS",
    "GlobalNumpyRNGRule",
    "RawNumpyHotPathRule",
    "OutSizeFormulaRule",
    "StridedPatchesRule",
    "KernelSeamImportRule",
]
