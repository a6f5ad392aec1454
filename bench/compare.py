"""Compare two sets of benchmark runs metric by metric.

::

    python3 bench/compare.py BASE.jsonl HEAD.jsonl

Each file holds one JSON record per run, as ``bench/noise.py --record``
writes them.  For every (workload, end-to-end metric) it prints one
verdict, using the bounds in ``BENCHMARK.json``:

``regressed``
    the head median is worse than the base median by more than the
    metric's bound;
``improved``
    at least 10 pairs, the head wins at least 9 in 10 of them (ties
    count for neither side), and the medians differ by more than the
    base runs' interquartile range;
``unresolved``
    not regressed, but the base runs spread wider than the bound, so
    "unchanged" cannot be told apart from noise (unless every head run
    beats every base run);
``unchanged``
    otherwise.

Runs are paired by (workload, set, seed).  The exit code is 1 when any
metric regressed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_benchmark():
    """The parsed ``BENCHMARK.json``."""
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end_metrics():
    """``{metric: spec}`` for the end-to-end metrics of BENCHMARK.json."""
    return {m["name"]: m for m in load_benchmark()["end_to_end"]}


def load_runs(path):
    """The run records of one JSON-lines file."""
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def spread(values):
    """``(median, q1, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def _series(runs, metric):
    """``{(workload, set, seed): value}`` for one metric."""
    return {
        (r["workload"], r.get("set", 0), r["seed"]): r["metrics"][metric]
        for r in runs if metric in r["metrics"]
    }


def verdict(base, head, better, bound):
    """Verdict for one (workload, metric): see the module docstring.

    *base* and *head* are equally long lists of paired values.
    """
    sign = 1.0 if better == "higher" else -1.0
    b_med, b_q1, b_q3 = spread(base)
    h_med = spread(head)[0]
    worse = sign * (b_med - h_med) / abs(b_med) if b_med else 0.0
    if worse > bound:
        return "regressed", worse
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    if (len(base) >= MIN_PAIRS and wins >= WIN_SHARE * len(base)
            and abs(h_med - b_med) > b_q3 - b_q1):
        return "improved", worse
    b_spread = (b_q3 - b_q1) / abs(b_med) if b_med else 0.0
    if b_spread > bound:
        best_base = max(base) if better == "higher" else min(base)
        if not all(sign * (h - best_base) > 0 for h in head):
            return "unresolved", worse
    return "unchanged", worse


def compare(base_runs, head_runs, metrics):
    """Rows of ``(workload, metric, n_pairs, base_median, head_median,
    worse_share, bound, verdict)``."""
    rows = []
    for name, spec in metrics.items():
        base, head = _series(base_runs, name), _series(head_runs, name)
        for workload in sorted({k[0] for k in base}):
            keys = sorted(k for k in base if k[0] == workload and k in head)
            if not keys:
                continue
            b = [base[k] for k in keys]
            h = [head[k] for k in keys]
            v, worse = verdict(b, h, spec["better"], spec["bound"])
            rows.append((workload, name, len(keys), spread(b)[0],
                         spread(h)[0], worse, spec["bound"], v))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("head")
    args = parser.parse_args(argv)
    rows = compare(load_runs(args.base), load_runs(args.head),
                   end_to_end_metrics())
    print(f"{'workload':<10} {'metric':<14} {'pairs':>5} {'base':>12} "
          f"{'head':>12} {'worse':>8} {'bound':>6}  verdict")
    for workload, metric, n, b, h, worse, bound, v in rows:
        print(f"{workload:<10} {metric:<14} {n:>5} {b:>12.5g} {h:>12.5g} "
              f"{worse:>+8.3f} {bound:>6.2f}  {v}")
    return 1 if any(r[-1] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
