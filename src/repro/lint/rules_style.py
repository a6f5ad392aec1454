"""Style, safety and documentation rules.

* ``DBG001`` — no debug leftovers (FIXME-class comment markers,
  ``breakpoint()``, ``pdb.set_trace``);
* ``EXC001`` — no bare ``except:``;
* ``EXC002`` — no silent broad handlers (``except Exception: pass``);
* ``DOC001`` — every library module carries a docstring;
* ``DOC002`` — every symbol a module exports via ``__all__`` and
  defines itself carries a docstring;
* ``MUT001`` — no in-place mutation of ``Tensor.data`` (bypasses
  autograd); deliberate sites carry an inline suppression with a
  reason.
"""

from __future__ import annotations

import ast

from .diagnostics import Severity
from .rules import Rule, dotted_parts, register

#: comment markers that flag unfinished or debugging work
DEBUG_MARKERS = ("XXX", "FIXME")

_BROAD_EXC = frozenset({"Exception", "BaseException"})


@register
class DebugMarkerRule(Rule):
    """Debug leftovers never ship: marker comments and live debugger
    hooks are both flagged with their exact line."""

    id = "DBG001"
    name = "debug-marker"
    severity = Severity.ERROR
    domains = ("library",)
    description = "no debug markers or debugger hooks"

    def check(self, src):
        for lineno, text in src.comments:
            for marker in DEBUG_MARKERS:
                if marker in text:
                    yield self.diag(
                        src, lineno, f"debug marker {marker} in comment",
                        suggestion="resolve it or file it as a tracked issue",
                    )
                    break
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) and node.func.id == "breakpoint":
                yield self.diag(src, node, "breakpoint() call")
            else:
                parts = dotted_parts(node.func)
                if parts and parts[-2:] == ["pdb", "set_trace"]:
                    yield self.diag(src, node, "pdb.set_trace() call")


@register
class BareExceptRule(Rule):
    """``except:`` also catches ``SystemExit`` and
    ``KeyboardInterrupt`` — always name the exception type."""

    id = "EXC001"
    name = "bare-except"
    severity = Severity.ERROR
    domains = ("library", "tests", "examples")
    description = "no bare except clauses"

    def check(self, src):
        for node in ast.walk(src.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.diag(
                    src, node, "bare except",
                    suggestion="catch the specific exception type",
                )


@register
class SilentExceptRule(Rule):
    """A broad handler whose body is only ``pass`` swallows every error
    — in a fixed-point pipeline that is exactly the silent-overflow
    failure mode this project exists to avoid.  Narrow handlers
    (``except queue.Empty: pass``) stay legal."""

    id = "EXC002"
    name = "silent-except"
    severity = Severity.ERROR
    domains = ("library", "tests", "examples")
    description = "no silent broad exception handlers"

    def check(self, src):
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            if all(self._is_noop(stmt) for stmt in node.body):
                yield self.diag(
                    src, node, "broad except with a no-op body swallows errors",
                    suggestion="handle, log, or re-raise; narrow the type "
                    "if the pass is intentional",
                )

    @staticmethod
    def _is_broad(type_node) -> bool:
        if type_node is None:
            return True
        names = []
        if isinstance(type_node, ast.Tuple):
            names = [getattr(e, "id", None) for e in type_node.elts]
        elif isinstance(type_node, ast.Name):
            names = [type_node.id]
        return any(n in _BROAD_EXC for n in names)

    @staticmethod
    def _is_noop(stmt) -> bool:
        if isinstance(stmt, ast.Pass):
            return True
        return (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis
        )


@register
class ModuleDocstringRule(Rule):
    """Every library module opens with a docstring saying what it owns
    (mirrors the import-time gate the test suite used to run)."""

    id = "DOC001"
    name = "module-missing-docstring"
    severity = Severity.ERROR
    domains = ("library",)
    description = "library modules need docstrings"

    def check(self, src):
        if not (ast.get_docstring(src.tree) or "").strip():
            yield self.diag(
                src, 1, "module has no docstring",
                suggestion="open the file with a short statement of purpose",
            )


@register
class ExportedDocstringRule(Rule):
    """Anything a module advertises in ``__all__`` and defines itself
    (``def``/``class``) must carry its own docstring."""

    id = "DOC002"
    name = "exported-symbol-missing-docstring"
    severity = Severity.ERROR
    domains = ("library",)
    description = "__all__ exports need docstrings"

    def check(self, src):
        exported = self._static_all(src.tree)
        if not exported:
            return
        for node in src.tree.body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if node.name in exported and not (ast.get_docstring(node) or "").strip():
                yield self.diag(
                    src, node,
                    f"exported symbol {node.name} has no docstring",
                )

    @staticmethod
    def _static_all(tree):
        names = set()
        for node in tree.body:
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
                value = node.value
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
                value = node.value
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    for elt in ast.walk(value):
                        if isinstance(elt, ast.Constant) and isinstance(
                            elt.value, str
                        ):
                            names.add(elt.value)
        return names


@register
class InplaceDataMutationRule(Rule):
    """Writing through ``.data`` mutates an array the autograd graph may
    alias — gradients silently stop matching.  Optimizer updates and
    checkpoint restores are the sanctioned exceptions and carry inline
    ``# repro-lint: ignore[MUT001]`` suppressions with their reasons."""

    id = "MUT001"
    name = "inplace-autograd-mutation"
    severity = Severity.ERROR
    domains = ("library",)
    description = "no in-place mutation of Tensor.data"

    def check(self, src):
        for node in ast.walk(src.tree):
            if isinstance(node, ast.AugAssign):
                if self._hits_data(node.target):
                    yield self.diag(
                        src, node,
                        "augmented assignment mutates Tensor.data in place",
                        suggestion="rebuild the array or suppress with a reason "
                        "if this site is outside the autograd graph",
                    )
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Subscript) and self._hits_data(
                        target
                    ):
                        yield self.diag(
                            src, node,
                            "slice assignment mutates Tensor.data in place",
                            suggestion="rebuild the array or suppress with a "
                            "reason if this site is outside the autograd graph",
                        )

    @staticmethod
    def _hits_data(target) -> bool:
        if isinstance(target, ast.Subscript):
            target = target.value
        return isinstance(target, ast.Attribute) and target.attr == "data"


__all__ = [
    "DEBUG_MARKERS",
    "DebugMarkerRule",
    "BareExceptRule",
    "SilentExceptRule",
    "ModuleDocstringRule",
    "ExportedDocstringRule",
    "InplaceDataMutationRule",
]
