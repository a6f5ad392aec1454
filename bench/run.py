"""Run one benchmark workload and print its metrics.

::

    python3 bench/run.py --workload steady --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` measures the per-layer metrics (an untraced and a traced
replay of the same load, plus direct calls into each layer).  Every
metric is printed with its unit and sample count; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--workload all`` runs every workload in
turn and ends with their merged result.

The program under test is imported from ``src/`` next to this
directory; without it the run exits non-zero before printing a result.
An open-loop run whose generator sent its median request more than
5 ms late is invalid and also exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("steady", "saturate", "overload", "hot_swap")


def pin_environment():
    """Fix the process environment before numpy is first imported.

    One BLAS thread per process, so the result does not depend on the
    BLAS build's default and process replicas do not oversubscribe the
    cores.  A compile-cache path that does not exist, so ``compiled``
    always uses its default schedule and never a stale tune (a miss
    writes nothing; only an explicit autotune saves).  No ambient
    backend override or lock sanitizer.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["REPRO_COMPILE_CACHE"] = os.path.join(BENCH,
                                                     "no-schedule-cache")
    os.environ.pop("REPRO_BACKEND", None)
    os.environ.pop("REPRO_LOCK_SANITIZER", None)


def environment():
    """Versions and core count recorded with every result."""
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
    }


def declared_metrics(trace):
    """The metric names BENCHMARK.json promises for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(name, result, detail):
    """The human-readable block printed before the JSON line."""
    lines = [
        f"== {name}: attempted {result['attempted']}, failed "
        f"{result['failed']}, hung {detail['hung']}, torn {detail['torn']} "
        f"(not in failed), driver lag p50 {detail['lag_p50_ms']:.3f} ms, "
        f"p99 {detail['lag_p99_ms']:.3f} ms"
        + ("" if detail["valid"] else "  INVALID (generator fell behind)"),
        "   outcomes: " + ", ".join(
            f"{k}={v}" for k, v in sorted(detail["outcomes"].items())),
    ]
    for metric, (value, unit, n) in result["metrics"].items():
        lines.append(f"   {metric:<40} {value:>14.6g} {unit:<9} n={n}")
    return "\n".join(lines)


def as_json(result):
    """The result object the last output line carries."""
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _n) in result["metrics"].items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="also write the result, per-metric sample "
                        "counts and the environment here as JSON")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"bench: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"bench: repro imported from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    env = environment()
    print("env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    declared = declared_metrics(args.trace)
    results, problems = {}, []
    for name in names:
        result, detail = workloads.run(name, args.seed, args.seconds,
                                       bool(args.trace))
        print(report(name, result, detail), flush=True)
        metrics = result["metrics"]
        if not detail["valid"]:
            problems.append(f"{name}: median driver lag over "
                            f"{workloads.MAX_LAG_P50_MS:g} ms")
        if set(metrics) != declared:
            problems.append(f"{name}: metrics differ from BENCHMARK.json: "
                            f"{sorted(set(metrics) ^ declared)}")
        problems += [f"{name}: {k} has no samples" for k, (v, _u, _n)
                     in metrics.items() if not math.isfinite(v)]
        results[name] = (result, detail)
    if problems:
        print("bench: invalid run, no result:\n  " + "\n  ".join(problems),
              file=sys.stderr)
        return 1
    if len(results) == 1:
        (final, _), = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r, _ in results.values()),
            "attempted": sum(r["attempted"] for r, _ in results.values()),
            "failed": sum(r["failed"] for r, _ in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, (r, _) in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({
                "workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace, "env": env,
                "result": as_json(final),
                "samples": {k: n for k, (_v, _u, n)
                            in final["metrics"].items()},
                "outcomes": {k: d["outcomes"]
                             for k, (_r, d) in results.items()},
            }, fh, indent=2, sort_keys=True)
    print(json.dumps(as_json(final)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
