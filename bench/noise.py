"""Measure the benchmark's own run-to-run noise.

::

    python3 bench/noise.py --runs 10 --sets 2 --readme bench/README.md

Runs every workload ``--runs`` times per set (seeds 0..runs-1), each in a
fresh ``bench/run.py`` process with tracing off, reversing the workload
order every round so slow drift of the machine does not land on one
workload.  Per set it reports each end-to-end metric's median and
interquartile range as a share of the median (the spread), and between
the first two sets the gap of their medians.  A metric meets its target
when its spread is below a third of its ``BENCHMARK.json`` bound (set-up
time excepted) and the sets' medians differ by less than the bound.

``--checkout DIR`` (repeatable) measures other checkouts too,
alternating which one runs first in each round; ``--record FILE``
(one per checkout, in the same order) keeps the raw runs for
``bench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from compare import end_to_end_metrics, load_benchmark, spread

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BEGIN = "<!-- noise-table:begin -->"
END = "<!-- noise-table:end -->"


def run_once(checkout, workload, seed, seconds):
    """One ``run.py`` process; its result record, or None if it failed."""
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return None
    result = json.loads(lines[-1])
    return {
        "workload": workload, "seed": seed,
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def measure(checkouts, workloads, runs, sets, seconds):
    """``{checkout: [record, ...]}``, order alternating every round."""
    records = {c: [] for c in checkouts}
    for s in range(sets):
        for seed in range(runs):
            flip = (s * runs + seed) % 2 == 1
            order = list(reversed(workloads)) if flip else list(workloads)
            sides = list(reversed(checkouts)) if flip else list(checkouts)
            for workload in order:
                for checkout in sides:
                    rec = run_once(checkout, workload, seed, seconds)
                    if rec is None:
                        print(f"set {s} seed {seed} {workload} @ {checkout}:"
                              f" run failed", flush=True)
                        continue
                    rec["set"] = s
                    records[checkout].append(rec)
                    shown = ", ".join(f"{k}={v:.5g}"
                                      for k, v in rec["metrics"].items())
                    print(f"set {s} seed {seed} {workload:<9} "
                          f"failed={rec['failed']} {shown}", flush=True)
    return records


def summarize(records, metrics):
    """Rows ``(workload, metric, [(median, spread) per set], gap, bound,
    meets_target)``."""
    rows = []
    workloads = []
    for r in records:
        if r["workload"] not in workloads:
            workloads.append(r["workload"])
    for workload in workloads:
        for name, spec in metrics.items():
            per_set = {}
            for r in records:
                if r["workload"] == workload and name in r["metrics"]:
                    per_set.setdefault(r["set"], []).append(r["metrics"][name])
            stats = []
            for s in sorted(per_set):
                med, q1, q3 = spread(per_set[s])
                stats.append((med, (q3 - q1) / abs(med) if med else 0.0))
            bound = spec["bound"]
            gap = (abs(stats[1][0] - stats[0][0]) / abs(stats[0][0])
                   if len(stats) > 1 and stats[0][0] else 0.0)
            meets = gap < bound and (
                name == "setup_s" or all(sp < bound / 3 for _, sp in stats))
            rows.append((workload, name, stats, gap, bound, meets))
    return rows


def render(rows, runs, seconds):
    """The summary as a Markdown table."""
    n_sets = max(len(r[2]) for r in rows)
    head = ["workload", "metric"]
    for s in range(n_sets):
        head += [f"median {s + 1}", f"IQR/med {s + 1}"]
    head += ["gap", "bound", "meets target"]
    lines = [
        f"{runs} runs per set, seeds 0-{runs - 1}, {seconds:g} s each, "
        f"workload order reversed every round.",
        "",
        "| " + " | ".join(head) + " |",
        "|" + "---|" * len(head),
    ]
    for workload, name, stats, gap, bound, meets in rows:
        cells = [workload, name]
        for med, sp in stats:
            cells += [f"{med:.4g}", f"{sp:.3f}"]
        cells += [""] * (2 * (n_sets - len(stats)))
        cells += [f"{gap:.3f}", f"{bound:g}", "yes" if meets else "NO"]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def write_readme(path, table):
    """Replace the text between the noise-table markers in *path*."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    start, end = text.index(BEGIN) + len(BEGIN), text.index(END)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text[:start] + "\n" + table + "\n" + text[end:])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--checkout", action="append", default=None)
    parser.add_argument("--record", action="append", default=None)
    parser.add_argument("--readme", default=None)
    args = parser.parse_args(argv)
    spec = load_benchmark()
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    checkouts = [os.path.abspath(c) for c in (args.checkout or [ROOT])]
    if args.record and len(args.record) != len(checkouts):
        parser.error("give one --record per checkout")
    records = measure(checkouts, workloads, args.runs, args.sets, seconds)
    metrics = end_to_end_metrics()
    ok = True
    for i, checkout in enumerate(checkouts):
        if args.record:
            with open(args.record[i], "w", encoding="utf-8") as fh:
                for rec in records[checkout]:
                    fh.write(json.dumps(rec) + "\n")
        rows = summarize(records[checkout], metrics)
        table = render(rows, args.runs, seconds)
        print(f"\n{checkout}\n{table}")
        ok = ok and all(r[-1] for r in rows)
        if args.readme and i == 0:
            write_readme(args.readme, table)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
