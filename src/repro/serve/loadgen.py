"""Deterministic open-loop load generation for the serving layer.

Soak tests and benchmarks need *reproducible* load: the arrival
schedule is drawn once from a seeded generator
(:func:`arrival_offsets`: exponential inter-arrival gaps, i.e. a
Poisson process of the requested rate) and then replayed open-loop —
requests are submitted at their scheduled offsets whether or not
earlier responses have come back, which is what makes overload visible
instead of self-throttling.

:func:`run_load` fires a schedule at a :class:`~repro.serve.Server`,
waits for every future with a hard timeout, and classifies each
outcome into a :class:`LoadReport` — completed / deadline-exceeded /
shed / stopped / errors, plus the crucial ``hung`` count: futures that
never resolved.  A healthy serving layer reports ``hung == 0`` under
any load, by construction.

``python -m repro.serve`` is the CLI harness CI's soak job runs: it
builds a server from the registry, calibrates the sustainable rate,
offers a configurable multiple of it, and exits non-zero on hung
futures, unexpected errors or unbounded queue growth.
"""

from __future__ import annotations

import argparse
import os
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field

import numpy as np

from .errors import DeadlineExceeded, QueueFull, ReplicaUnavailable, ServerStopped
from .request import Priority


def arrival_offsets(rate_hz, duration_s, seed):
    """Seeded Poisson arrival schedule: sorted offsets (s) < *duration_s*.

    Inter-arrival gaps are exponential with mean ``1 / rate_hz``; the
    same ``(rate_hz, duration_s, seed)`` triple always produces the
    identical schedule, which is what makes soak runs comparable
    across commits.
    """
    if rate_hz <= 0:
        raise ValueError(f"rate_hz must be > 0, got {rate_hz}")
    if duration_s <= 0:
        raise ValueError(f"duration_s must be > 0, got {duration_s}")
    rng = np.random.default_rng(seed)
    offsets = []
    t = 0.0
    while True:
        t += rng.exponential(1.0 / float(rate_hz))
        if t >= duration_s:
            break
        offsets.append(t)
    return np.asarray(offsets, dtype=float)


def pick_priorities(n, seed, weights=(0.1, 0.8, 0.1)):
    """Seeded priority mix: *n* draws over (LOW, NORMAL, HIGH)."""
    rng = np.random.default_rng(seed)
    classes = (Priority.LOW, Priority.NORMAL, Priority.HIGH)
    probs = np.asarray(weights, dtype=float)
    probs = probs / probs.sum()
    picks = rng.choice(len(classes), size=int(n), p=probs)
    return [classes[i] for i in picks]


@dataclass
class LoadReport:
    """Classified outcome of one :func:`run_load` run."""

    offered: int = 0
    completed: int = 0
    deadline_exceeded: int = 0
    shed: int = 0
    stopped: int = 0
    unavailable: int = 0
    errors: int = 0
    hung: int = 0
    duration_s: float = 0.0
    latencies_ms: list = field(default_factory=list)
    error_examples: list = field(default_factory=list)
    #: labelled-run accuracy record: (request index, correct) per
    #: completed request, in request-timeline order
    outcomes: list = field(default_factory=list)

    @property
    def achieved_rate(self) -> float:
        """Completed responses per second of wall clock."""
        return self.completed / self.duration_s if self.duration_s else 0.0

    def latency_percentile(self, pct) -> float:
        """Completion-latency percentile (ms); NaN when nothing completed."""
        if not self.latencies_ms:
            return float("nan")
        return float(np.percentile(np.asarray(self.latencies_ms), pct))

    def accuracy_windows(self, windows=10):
        """Accuracy over *windows* equal slices of the request timeline.

        Only meaningful for labelled runs (``run_load(labels=...)``).
        Returns a list of ``{"start", "end", "evaluated", "accuracy"}``
        dicts — the accuracy-recovered-vs-requests-served curve the
        adaptation benchmark persists.  Windows with no completed
        request report NaN accuracy.
        """
        if not self.outcomes:
            return []
        edges = np.linspace(0, self.offered, int(windows) + 1)
        out = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            hits = [ok for i, ok in self.outcomes if lo <= i < hi]
            out.append({
                "start": int(lo),
                "end": int(hi),
                "evaluated": len(hits),
                "accuracy": float(np.mean(hits)) if hits else float("nan"),
            })
        return out

    def final_accuracy(self, frac=0.2) -> float:
        """Accuracy over the last *frac* of the request timeline."""
        if not self.outcomes:
            return float("nan")
        cut = self.offered * (1.0 - float(frac))
        hits = [ok for i, ok in self.outcomes if i >= cut]
        return float(np.mean(hits)) if hits else float("nan")

    def summary(self) -> str:
        """One text block, CI-log friendly."""
        lines = [
            "=== load report ===",
            f"offered {self.offered} over {self.duration_s:.1f}s"
            f" -> completed {self.completed}"
            f" ({self.achieved_rate:.1f}/s)",
            f"failed fast: {self.deadline_exceeded} deadline,"
            f" {self.shed} shed, {self.stopped} stopped,"
            f" {self.unavailable} unavailable, {self.errors} errors",
            f"hung futures: {self.hung}",
        ]
        if self.latencies_ms:
            lines.append(
                f"latency ms: p50 {self.latency_percentile(50):.2f}"
                f"  p95 {self.latency_percentile(95):.2f}"
                f"  p99 {self.latency_percentile(99):.2f}"
            )
        if self.outcomes:
            curve = "  ".join(
                "-" if w["accuracy"] != w["accuracy"]
                else f"{w['accuracy']:.2f}"
                for w in self.accuracy_windows()
            )
            lines.append(
                f"accuracy: {len(self.outcomes)} evaluated,"
                f" windows [{curve}],"
                f" final fifth {self.final_accuracy():.3f}"
            )
        for example in self.error_examples:
            lines.append(f"  error example: {example}")
        return "\n".join(lines)


def run_load(server, samples, offsets, *, seed, deadline_ms=None,
             priority_weights=None, collect_timeout_s=60.0, labels=None):
    """Replay *offsets* open-loop against *server*; classify everything.

    Parameters
    ----------
    server:
        a :class:`~repro.serve.Server` (anything with ``submit``).
    samples:
        array of samples (leading axis cycled through round-robin).
    offsets:
        arrival offsets in seconds (see :func:`arrival_offsets`).
    seed:
        seeds the priority mix; required so runs stay reproducible.
    deadline_ms:
        per-request deadline forwarded to ``submit``.
    priority_weights:
        optional (LOW, NORMAL, HIGH) weights; ``None`` sends everything
        at NORMAL priority.
    collect_timeout_s:
        hard per-future wait when collecting; a future that misses it
        counts as ``hung`` (the failure soak tests exist to catch).
    labels:
        optional ground-truth labels aligned with ``samples`` (cycled
        the same way).  Each label is forwarded to ``submit`` — feeding
        a live adaptation tap — and every completed response is scored
        against it into :attr:`LoadReport.outcomes`, giving the
        accuracy-vs-requests-served curve.
    """
    samples = np.asarray(samples)
    offsets = np.asarray(offsets, dtype=float)
    n = len(offsets)
    if priority_weights is None:
        priorities = [Priority.NORMAL] * n
    else:
        priorities = pick_priorities(n, seed, priority_weights)
    if labels is not None and len(labels) != len(samples):
        raise ValueError(
            f"labels ({len(labels)}) must align with samples "
            f"({len(samples)})"
        )

    report = LoadReport(offered=n)
    futures = []
    done_at = {}

    def stamp(fut):
        done_at[id(fut)] = time.perf_counter()

    t0 = time.perf_counter()
    for i, offset in enumerate(offsets):
        delay = t0 + offset - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        label = None if labels is None else int(labels[i % len(labels)])
        fut = server.submit(
            samples[i % len(samples)],
            priority=priorities[i],
            deadline_ms=deadline_ms,
            label=label,
        )
        fut.add_done_callback(stamp)
        futures.append((i, label, t0 + offset, fut))

    for i, label, scheduled, fut in futures:
        try:
            row = fut.result(timeout=collect_timeout_s)
        except DeadlineExceeded:
            report.deadline_exceeded += 1
        except QueueFull:
            report.shed += 1
        except ServerStopped:
            report.stopped += 1
        except ReplicaUnavailable:
            report.unavailable += 1
        except FutureTimeoutError:
            report.hung += 1
        except Exception as exc:
            report.errors += 1
            if len(report.error_examples) < 3:
                report.error_examples.append(repr(exc))
        else:
            report.completed += 1
            finished = done_at.get(id(fut), time.perf_counter())
            report.latencies_ms.append(max(0.0, (finished - scheduled)) * 1e3)
            if label is not None:
                report.outcomes.append(
                    (i, bool(int(np.argmax(row)) == label))
                )
    report.duration_s = time.perf_counter() - t0
    return report


def calibrate_rate(server, sample, *, repeats=5, batch_size=8, seed=0):
    """Measure one replica's sustainable throughput (samples/s).

    Runs *repeats* direct batches on the pool's first replica and
    returns the best observed rate — the per-replica capacity the
    harness scales offered load against.  *seed* shapes the calibration
    batch so the measurement itself is reproducible.
    """
    rng = np.random.default_rng(seed)
    sample = np.asarray(sample)
    batch = np.stack([sample] * int(batch_size))
    # jitter rows so the calibration batch is not degenerate, seeded so
    # the measurement input is identical run to run
    batch = batch + 0.01 * rng.standard_normal(batch.shape).astype(batch.dtype)
    replica = next(iter(server.pool))
    replica.run(batch)  # warm-up
    best = float("inf")
    for _ in range(int(repeats)):
        t0 = time.perf_counter()
        replica.run(batch)
        best = min(best, time.perf_counter() - t0)
    return batch_size / best


def main(argv=None) -> int:  # repro-lint: ignore[SRV001] seed arrives via --seed
    """CLI soak harness: build, calibrate, fire, verify, report."""
    from ..models.registry import PROFILES
    from .server import Server

    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Deterministic open-loop load harness for repro.serve.",
    )
    parser.add_argument("--model", default="ode_botnet")
    parser.add_argument("--profile", default="tiny",
                        choices=sorted(PROFILES))
    parser.add_argument("--replicas", type=int, default=2)
    parser.add_argument("--backend", default=None,
                        help="kernel backend for every replica")
    parser.add_argument("--mode", default="thread",
                        choices=("thread", "process"))
    parser.add_argument("--workers", default=None, metavar="HOST:PORT,...",
                        help="comma-separated repro.cluster worker "
                        "addresses; every advertised replica slot joins "
                        "the pool as a RemoteReplica (launch workers with "
                        "python -m repro.cluster.worker)")
    parser.add_argument("--autoscale", default=None, metavar="MIN:MAX",
                        help="autoscaler pool-size bounds over --workers "
                        "(p99- and trace-tail-driven add/drain; requires "
                        "--workers)")
    parser.add_argument("--policy", default="reject",
                        choices=("reject", "reject-oldest", "degrade"))
    parser.add_argument("--tiers", default=None,
                        help="comma-separated degrade ladder for "
                        "--policy degrade (default: reduced,int8,int4)")
    parser.add_argument("--no-certify", action="store_true",
                        help="skip the static per-tier overflow "
                        "certification at build time")
    parser.add_argument("--capacity", type=int, default=64)
    parser.add_argument("--batch", type=int, default=8)
    parser.add_argument("--wait-ms", type=float, default=2.0)
    parser.add_argument("--duration", type=float, default=10.0)
    parser.add_argument("--load-factor", type=float, default=1.5,
                        help="offered rate as a multiple of one replica's "
                        "calibrated capacity")
    parser.add_argument("--rate", type=float, default=None,
                        help="explicit offered rate (samples/s); overrides "
                        "--load-factor")
    parser.add_argument("--deadline-ms", type=float, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--adapt", action="store_true",
                        help="attach a streaming AdaptationController "
                        "(repro.adapt): labelled requests feed an online "
                        "trainer whose snapshots are hot-swapped into "
                        "every replica; the run fails unless >=1 swap "
                        "lands with zero hung futures")
    parser.add_argument("--adapt-lr", type=float, default=0.05)
    parser.add_argument("--adapt-batch", type=int, default=16)
    parser.add_argument("--adapt-publish-every", type=int, default=8,
                        help="hot-swap a snapshot every N online steps")
    parser.add_argument("--adapt-min-samples", type=int, default=32,
                        help="tap fill level before online steps start")
    parser.add_argument("--drift", default=None,
                        choices=("rotation", "noise", "prior"),
                        help="drive the request stream through a "
                        "repro.data DriftSchedule instead of static "
                        "noise samples (implies labelled traffic)")
    parser.add_argument("--drift-severity", type=float, default=1.0)
    parser.add_argument("--drift-start", type=float, default=0.25,
                        help="drift onset as a fraction of the request "
                        "timeline")
    parser.add_argument("--drift-ramp", type=float, default=0.25,
                        help="fraction of the timeline over which drift "
                        "ramps to full severity")
    parser.add_argument("--trace", default=None, metavar="OUT.json",
                        help="record request traces and write a Chrome/"
                        "Perfetto trace JSON here")
    parser.add_argument("--trace-sample", type=int, default=1,
                        help="trace every Nth request (default: every "
                        "request)")
    args = parser.parse_args(argv)

    # the lock sanitizer must be live BEFORE Server.build so every
    # serve-stack lock is created through the instrumented factories
    sanitizer = None
    if os.environ.get("REPRO_LOCK_SANITIZER"):
        from ..lint.concurrency.sanitizer import install_from_env

        sanitizer = install_from_env()
        if sanitizer is not None:
            print("lock sanitizer: on (observed acquisition orders will "
                  "be cross-checked against the static lock graph)")

    size = PROFILES[args.profile]["input_size"]
    rng = np.random.default_rng(args.seed)
    samples = rng.standard_normal((32, 3, size, size)).astype(np.float32)

    tracer = None
    if args.trace is not None:
        from ..trace import Tracer

        tracer = Tracer(sample_every=args.trace_sample)

    # backend/cluster/adaptation flags travel as SessionConfig fields —
    # the single bundled configuration value every layer accepts
    from ..runtime import SessionConfig

    workers = tuple(
        w.strip() for w in (args.workers or "").split(",") if w.strip()
    )
    autoscale = None
    if args.autoscale:
        lo, sep, hi = args.autoscale.partition(":")
        if not sep:
            parser.error("--autoscale takes MIN:MAX, e.g. 2:8")
        try:
            autoscale = (int(lo), int(hi))
        except ValueError:
            parser.error(f"--autoscale bounds must be integers, "
                         f"got {args.autoscale!r}")
    adapt = None
    if args.adapt:
        from ..adapt import AdaptConfig

        adapt = AdaptConfig(
            lr=args.adapt_lr,
            batch_size=args.adapt_batch,
            publish_every=args.adapt_publish_every,
            min_samples=args.adapt_min_samples,
            seed=args.seed,
        )
    try:
        config = SessionConfig(backend=args.backend, workers=workers,
                               autoscale=autoscale, adapt=adapt)
    except ValueError as exc:
        parser.error(str(exc))
    server = Server.build(
        args.model, args.profile, args.replicas, config=config,
        mode=args.mode, shed_policy=args.policy,
        tiers=args.tiers, certify=not args.no_certify,
        queue_capacity=args.capacity, max_batch_size=args.batch,
        max_wait_ms=args.wait_ms, tracer=tracer,
    )
    if config.workers:
        remote = sum(
            1 for r in server.pool if getattr(r, "info", None) is not None
        )
        print(f"cluster: {remote} remote replica slot(s) from "
              f"{len(config.workers)} worker(s)"
              + (f", autoscale bounds {config.autoscale}"
                 if config.autoscale else ""))
    if args.policy == "degrade":
        print(f"degrade ladder: {' -> '.join(server.queue.tiers)} "
              f"({'certified' if not args.no_certify else 'UNCERTIFIED'})")
    try:
        rate = args.rate
        if rate is None:
            per_replica = calibrate_rate(server, samples[0],
                                         batch_size=args.batch,
                                         seed=args.seed)
            rate = args.load_factor * per_replica
            print(f"calibrated capacity: {per_replica:.1f} samples/s per "
                  f"replica; offering {rate:.1f}/s "
                  f"({args.load_factor:.2f}x)")
        offsets = arrival_offsets(rate, args.duration, args.seed)
        labels = None
        if args.drift is not None or args.adapt:
            # labelled, optionally drifting traffic: one synthetic STL
            # sample per scheduled request, drift level following the
            # request timeline
            from ..data import DriftSchedule, make_drift_stream

            schedule = None
            if args.drift is not None:
                schedule = DriftSchedule(
                    kind=args.drift, severity=args.drift_severity,
                    start=args.drift_start, ramp=args.drift_ramp,
                )
                print(f"drift: {schedule.describe()}")
            samples, labels, _ = make_drift_stream(
                len(offsets), schedule, size=size, seed=args.seed,
            )
        report = run_load(server, samples, offsets, seed=args.seed,
                          deadline_ms=args.deadline_ms,
                          priority_weights=(0.1, 0.8, 0.1),
                          labels=labels)
        print(report.summary())
        print(server.metrics_report())
        if tracer is not None:
            from ..trace import (
                render_tail_attribution,
                tail_attribution,
                write_chrome_trace,
            )

            spans = tracer.spans()
            n_events = write_chrome_trace(spans, args.trace)
            print(render_tail_attribution(tail_attribution(spans)))
            print(f"trace: {n_events} events -> {args.trace} "
                  f"(load at https://ui.perfetto.dev)")
        metrics = server.metrics()
        queue_snap = metrics["queue"]
        bounded = queue_snap["high_water"] <= (
            server.queue.capacity + server.queue.degrade_headroom
        )
        ok = report.hung == 0 and report.errors == 0 and bounded
        if not bounded:
            print(f"FAIL: queue grew past its bound "
                  f"(high-water {queue_snap['high_water']})")
        if report.hung or report.errors:
            print(f"FAIL: {report.hung} hung futures, "
                  f"{report.errors} unexpected errors")
        if args.adapt:
            adapt_snap = metrics.get("adaptation") or {}
            if adapt_snap.get("error"):
                print(f"FAIL: adaptation loop error: "
                      f"{adapt_snap['error']}")
                ok = False
            swaps = (adapt_snap.get("publisher") or {}).get("swaps", 0)
            if swaps < 1:
                print("FAIL: --adapt run finished without a single hot "
                      "weight swap (lower --adapt-min-samples / "
                      "--adapt-publish-every or raise --duration)")
                ok = False
        rc = 0 if ok else 1
    finally:
        server.close()
    if sanitizer is not None:
        # cross-check after close() so shutdown's lock traffic (the
        # drain, executor joins, closing replica channels) is in the
        # record too
        sanitizer.uninstall()
        verdict = sanitizer.cross_check()
        print(sanitizer.summary(verdict))
        if verdict["violations"]:
            print(f"FAIL: {len(verdict['violations'])} lock-order "
                  f"violation(s) observed at runtime")
            rc = 1
    return rc


__all__ = [
    "arrival_offsets",
    "pick_priorities",
    "run_load",
    "calibrate_rate",
    "LoadReport",
    "main",
]
