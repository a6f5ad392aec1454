"""Metrics aggregation: one snapshot, one text report, whole server.

``snapshot(...)`` folds the per-replica
:class:`~repro.runtime.SessionStats`, the admission queue's shedding
counters and the scheduler's dispatch counters into a single plain
dict — the thing a scraper would export.  Per-kernel time appears only
as the ``kernel.*`` stage of a traced server's ``"trace"`` section.
``render_report`` turns that dict into the aligned text block the demo
and the load harness print.
"""

from __future__ import annotations

from ..trace import STAGES


def snapshot(pool, queue=None, scheduler=None, tracer=None,
             autoscaler=None, adaptation=None) -> dict:
    """Aggregate a serving stack into one plain-dict metrics snapshot.

    ``pool`` is required; ``queue``, ``scheduler``, ``tracer``,
    ``autoscaler`` and ``adaptation`` are optional so partial stacks
    (e.g. a bare pool in a test) can still report.  With a
    :class:`repro.trace.Tracer` the snapshot gains a ``"trace"``
    section: span counters plus per-stage latency percentiles over the
    retained spans.  With a :class:`repro.cluster.Autoscaler` it gains
    an ``"autoscaler"`` section: bounds, worker roster and the recent
    decision events.  With an
    :class:`repro.adapt.AdaptationController` it gains an
    ``"adaptation"`` section: tap fill/drop counters, online steps and
    hot-swap (``weights_version``) history.
    """
    merged = pool.merged_stats()
    out = {
        "aggregate": merged.snapshot(),
        "replicas": {
            replica.name: {
                **replica.health(),
                "stats": replica.stats.snapshot(),
            }
            for replica in pool
        },
    }
    if queue is not None:
        out["queue"] = queue.snapshot()
    if scheduler is not None:
        out["scheduler"] = scheduler.snapshot()
    if tracer is not None:
        out["trace"] = tracer.snapshot()
    if autoscaler is not None:
        out["autoscaler"] = autoscaler.snapshot()
    if adaptation is not None:
        out["adaptation"] = adaptation.snapshot()
    return out


def _fmt_ms(value) -> str:
    return "    -" if value != value else f"{value:8.2f}"  # NaN-safe


def render_report(snap) -> str:
    """Render a :func:`snapshot` dict as an aligned text report."""
    lines = []
    agg = snap["aggregate"]
    lines.append("=== serve metrics ===")
    lines.append(
        f"aggregate: {agg['requests']} requests in {agg['batches']} batches"
        f"  p50 {_fmt_ms(agg['p50_ms'])} ms"
        f"  p95 {_fmt_ms(agg['p95_ms'])} ms"
        f"  p99 {_fmt_ms(agg['p99_ms'])} ms"
    )
    if agg.get("batch_histogram"):
        hist = "  ".join(
            f"{size}x{count}" for size, count in agg["batch_histogram"].items()
        )
        lines.append(f"batch sizes: {hist}")
    queue = snap.get("queue")
    if queue is not None:
        lines.append(
            f"queue[{queue['policy']}]: depth {queue['depth']}/"
            f"{queue['capacity']} (high-water {queue['high_water']})"
            f"  admitted {queue['admitted']}"
            f"  shed {queue['shed_incoming']}+{queue['shed_evicted']}"
            f"  degraded {queue['degraded_admissions']}"
        )
        by_tier = queue.get("degraded_by_tier") or {}
        if any(by_tier.values()):
            rungs = "  ".join(
                f"{tier}:{count}" for tier, count in by_tier.items()
            )
            lines.append(f"  degrade ladder: {rungs}")
    sched = snap.get("scheduler")
    if sched is not None:
        lines.append(
            f"scheduler: {sched['completed']} ok / {sched['failed']} failed"
            f" ({sched['deadline_exceeded']} deadline,"
            f" {sched['degraded_dispatched']} degraded)"
            f"  priorities {sched['by_priority'] or '{}'}"
        )
        by_tier = sched.get("dispatched_by_tier") or {}
        if by_tier:
            rungs = "  ".join(
                f"{tier}:{count}" for tier, count in by_tier.items()
            )
            lines.append(f"  dispatched by tier: {rungs}")
    trace = snap.get("trace")
    if trace is not None:
        lines.append(
            f"trace: {trace['requests']} requests traced"
            f" (sample 1/{trace['sample_every']}),"
            f" {trace['completed']} spans"
            f" ({trace['retained']} retained, {trace['dropped']} dropped)"
        )
        stages = trace.get("stages", {})
        for stage in (*STAGES, "kernel.*"):
            st = stages.get(stage)
            if st is None:
                continue
            lines.append(
                f"  stage {stage:<12} x{st['count']:<6}"
                f" p50 {st['p50_ms']:7.3f} ms"
                f"  p95 {st['p95_ms']:7.3f} ms"
                f"  p99 {st['p99_ms']:7.3f} ms"
            )
    auto = snap.get("autoscaler")
    if auto is not None:
        upper = auto["max_replicas"]
        lines.append(
            f"autoscaler: bounds [{auto['min_replicas']}, "
            f"{'unbounded' if upper is None else upper}]"
            f" over {len(auto['workers'])} worker(s)"
            f"  added {len(auto['autoscaled_replicas'])}"
        )
        for event in auto["events"][-3:]:
            detail = {k: v for k, v in event.items() if k != "event"}
            lines.append(f"  event {event['event']}: {detail}")
    adapt = snap.get("adaptation")
    if adapt is not None:
        tap = adapt["tap"]
        trainer = adapt["trainer"]
        pub = adapt["publisher"]
        state = "running" if adapt["running"] else "stopped"
        if adapt.get("error"):
            state = f"ERROR {adapt['error']}"
        lines.append(
            f"adaptation [{state}]: {trainer['steps']} steps"
            f"  last loss {trainer['last_loss']:.4f}"
            f"  tap {tap['size']}/{tap['capacity']}"
            f" (offered {tap['offered']}, dropped {tap['dropped']})"
        )
        if pub["swaps"]:
            lines.append(
                f"  swaps: {pub['swaps']}"
                f"  weights v{pub['last_version']}"
                f"  pause last {pub['last_pause_ms']:.2f} ms"
                f" / max {pub['max_pause_ms']:.2f} ms"
            )
    for name, rep in snap["replicas"].items():
        stats = rep["stats"]
        flag = "up  " if rep["healthy"] else "DOWN"
        where = f" @ {rep['address']}" if rep.get("remote") else ""
        lines.append(
            f"  {name} [{flag}]{where} {stats['requests']:6d} requests"
            f"  p95 {_fmt_ms(stats['p95_ms'])} ms"
            f"  outstanding {rep['outstanding']}"
            f"  failures {rep['consecutive_failures']}"
        )
        tier_counts = rep.get("dispatches_by_tier") or {}
        if any(tier_counts.values()):
            rungs = "  ".join(
                f"{tier}:{count}" for tier, count in tier_counts.items()
            )
            lines.append(
                f"      tiers (weights v{rep.get('weights_version', 1)}):"
                f" {rungs}"
            )
    return "\n".join(lines)


__all__ = ["snapshot", "render_report"]
