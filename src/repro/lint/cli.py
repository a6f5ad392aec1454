"""Command-line front end: ``python -m repro.lint``.

Usage::

    python -m repro.lint src tests examples
    python -m repro.lint src/repro --select RNG,SEAM --format json
    python -m repro.lint --check-plan ode_botnet:tiny --fixed-point "32(16)-24(8)"

Exit codes are stable and CI-friendly:

* ``0`` — no error-severity diagnostics (warnings/info may exist);
* ``1`` — at least one error-severity diagnostic;
* ``2`` — usage error (unknown rule, bad path, bad plan spec).

``--output FILE`` always writes the machine-readable JSON report (the
CI artifact), independent of the ``--format`` used on stdout.
"""

from __future__ import annotations

import argparse
import os
import sys

from .diagnostics import Severity, Summary, render_json, render_text
from .engine import Linter
from .rules import all_rules


def _split_csv(values):
    out = []
    for value in values or ():
        out.extend(p.strip() for p in value.split(",") if p.strip())
    return out


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for the lint CLI (exposed for tests/docs)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="AST project linter + static shape/dtype checker",
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (e.g. src tests examples)",
    )
    parser.add_argument(
        "--select", action="append", metavar="RULES",
        help="comma-separated rule ids/prefixes to run (default: all)",
    )
    parser.add_argument(
        "--ignore", action="append", metavar="RULES",
        help="comma-separated rule ids/prefixes to skip",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="stdout report format (default: text)",
    )
    parser.add_argument(
        "--output", metavar="FILE",
        help="also write the JSON report to FILE (the CI artifact)",
    )
    parser.add_argument(
        "--check-plan", action="append", metavar="MODEL[:PROFILE]",
        help="build a registry model and statically shape-check its "
        "execution plans (repeatable)",
    )
    parser.add_argument(
        "--fixed-point", metavar="FEAT-PARAM",
        help="with --check-plan: run the Q-format accumulator analysis "
        'for a format pair, e.g. "32(16)-24(8)"',
    )
    parser.add_argument(
        "--concurrency", action="store_true",
        help="also run the whole-program concurrency analysis (CON001-"
        "CON004) over the serve/runtime/trace files among the paths",
    )
    parser.add_argument(
        "--report-unused-suppressions", action="store_true",
        help="emit SUP001 errors for ignore[...] comments no diagnostic "
        "matched (run with the full rule set, or everything looks stale)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _list_rules() -> str:
    from .concurrency import CONCURRENCY_RULES
    from .engine import UNUSED_SUPPRESSION_RULE

    lines = []
    for rule in all_rules() + list(CONCURRENCY_RULES):
        domains = ",".join(rule.domains)
        lines.append(
            f"{rule.id}  {rule.name}  [{rule.severity}] ({domains}) — "
            f"{rule.description}"
        )
    lines.append(
        f"{UNUSED_SUPPRESSION_RULE}  unused-suppression  [error] "
        f"(library,tests,examples) — ignore[...] comment no diagnostic "
        f"matched (--report-unused-suppressions)"
    )
    return "\n".join(lines)


def _check_plans(specs, fixed_point):
    """Shape-check registry models by spec."""
    from ..models import build_model
    from . import shapecheck

    diags = []
    for spec in specs:
        name, _, profile = spec.partition(":")
        model = build_model(name, profile=profile or "tiny")
        model.eval()
        diags.extend(
            shapecheck.check_model(model, origin=f"<plan:{spec}>")
        )
        if fixed_point:
            from ..fixedpoint.qformat import parse_format_pair

            ffmt, pfmt = parse_format_pair(fixed_point)
            diags.extend(
                shapecheck.check_fixed_point(
                    model, ffmt, pfmt,
                    origin=f"<fixed:{spec}:{fixed_point}>",
                )
            )
    return diags


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    if not args.paths and not args.check_plan:
        parser.print_usage(sys.stderr)
        print(
            "error: provide paths to lint and/or --check-plan", file=sys.stderr
        )
        return 2

    for path in args.paths:
        if not os.path.exists(path):
            print(f"error: no such path: {path}", file=sys.stderr)
            return 2

    select = _split_csv(args.select) or None
    ignore = _split_csv(args.ignore) or None
    linter = Linter(select=select, ignore=ignore)
    if select and not linter.rules:
        print(
            f"error: --select matches no rule: {','.join(select)}",
            file=sys.stderr,
        )
        return 2
    diagnostics = linter.run(args.paths) if args.paths else []

    if args.concurrency:
        from .concurrency import CONCURRENCY_SCOPE, analyze_sources

        # reuse the linter's SourceFiles: the model is built from the
        # same parse, and CON suppressions register as *used* so the
        # stale-suppression audit below sees the whole picture
        scoped = [
            src for src in linter.sources
            if src.rel.startswith(tuple(CONCURRENCY_SCOPE))
        ]
        diagnostics = sorted(
            diagnostics + analyze_sources(scoped),
            key=lambda d: d.sort_key,
        )

    if args.report_unused_suppressions:
        from .engine import unused_suppression_diagnostics

        diagnostics = sorted(
            diagnostics + unused_suppression_diagnostics(linter.sources),
            key=lambda d: d.sort_key,
        )

    if args.check_plan:
        try:
            diagnostics.extend(_check_plans(args.check_plan, args.fixed_point))
        except (KeyError, ValueError, TypeError) as exc:
            print(f"error: --check-plan failed: {exc}", file=sys.stderr)
            return 2

    summary = Summary.of(diagnostics, files_scanned=linter.files_scanned)
    if args.format == "json":
        print(render_json(diagnostics, summary))
    else:
        report = render_text(diagnostics, summary)
        if report:
            print(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(render_json(diagnostics, summary))
            fh.write("\n")

    has_errors = any(d.severity is Severity.ERROR for d in diagnostics)
    return 1 if has_errors else 0


__all__ = ["main", "build_parser"]
