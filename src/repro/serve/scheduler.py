"""The dispatch engine: queue -> batches -> replicas.

One collector thread pops batches from the
:class:`~repro.serve.AdmissionQueue` (up to ``max_batch_size``, waiting
at most ``max_wait_ms`` for a partial batch to reach the fill recent
batches reached; see :meth:`~repro.serve.AdmissionQueue.next_batch`),
then routes each batch to the least-loaded healthy replica, where a
dedicated single-thread executor runs it.  Priority classes drain high-first
(the queue is a priority heap); requests are grouped by degrade-ladder
*tier* into their own sub-batches (full quality first, then ladder
order) so a batch always runs on exactly one session.

Backpressure is explicit: every batch in flight holds a lease on its
replica, and the collector will not pop the next batch until a healthy
replica holds fewer than
:data:`~repro.serve.pool.INFLIGHT_PER_REPLICA` leases (see
:meth:`~repro.serve.ReplicaPool.wait_for_room`).  Under overload, and
while some replicas are unhealthy, the backlog therefore piles up *in
the admission queue* — the one place with a capacity bound and
shedding policies — never in the replicas' executor queues.

Deadline contract: a request whose deadline expires while queued (or
while waiting in a replica's executor) fails fast with
:class:`~repro.serve.DeadlineExceeded` — the model never runs for it.
A request whose deadline expires *after* its batch started executing
completes normally; the deadline bounds queueing, not compute.

Every request future is resolved exactly once — by the batch that ran
it, by a deadline/shedding fail-fast, or by shutdown — and
:meth:`Scheduler.stop` keeps that property under ``drain=True`` (serve
what is queued, then stop) and ``drain=False`` (fail what is queued
with :class:`~repro.serve.ServerStopped`, then stop).
"""

from __future__ import annotations

import math
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import DeadlineExceeded, ReplicaUnavailable, ServerStopped


class Scheduler:
    """Batches the admission queue onto a :class:`ReplicaPool`, whose
    per-replica leases bound the batches in flight.

    Parameters
    ----------
    pool:
        the :class:`~repro.serve.ReplicaPool` to dispatch onto.
    queue:
        the :class:`~repro.serve.AdmissionQueue` to drain.
    max_batch_size, max_wait_ms:
        the largest batch, and the longest a partial batch may wait
        for more requests (finite, >= 0).
    tracer:
        optional :class:`repro.trace.Tracer`.  When set, batches that
        contain sampled requests (``Request.trace_id`` is not ``None``)
        record ``admission`` / ``batch`` / ``dispatch`` spans; the
        dispatch span is ambient on the executor thread, so the
        session, solver and kernel seams nest under it without any
        further plumbing.  Batches with no sampled request run the
        exact untraced path.
    """

    def __init__(self, pool, queue, *, max_batch_size=8, max_wait_ms=2.0,
                 tracer=None):
        if max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be >= 1, got {max_batch_size}"
            )
        if not 0.0 <= float(max_wait_ms) < math.inf:
            raise ValueError(
                f"max_wait_ms must be finite and >= 0, got {max_wait_ms}"
            )
        self.pool = pool
        self.queue = queue
        self.max_batch_size = int(max_batch_size)
        self.max_wait_s = float(max_wait_ms) / 1e3
        self.tracer = tracer
        self._lock = threading.Lock()
        self._collector = None
        self._executors = {}
        self._stopped = False
        # counters (protected by _lock)
        self.dispatched_batches = 0
        self.completed = 0
        self.failed = 0
        self.deadline_exceeded = 0
        self.degraded_dispatched = 0
        self.dispatched_by_tier = Counter()
        self.by_priority = Counter()

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the collector thread and per-replica executors."""
        # snapshot the pool before taking _lock: the elastic pool's
        # __iter__ acquires ReplicaPool._lock, and nesting it under
        # Scheduler._lock would put an edge in the lock-order graph
        # (a replica added between snapshot and start gets its
        # executor lazily via _executor_for)
        replicas = list(self.pool)
        with self._lock:
            if self._collector is not None:
                return
            if self._stopped:
                raise ServerStopped("scheduler already stopped")
            for replica in replicas:
                self._make_executor_locked(replica.name)
            self._collector = threading.Thread(
                target=self._collect_loop,
                name="repro-serve-collector",
                daemon=True,
            )
            self._collector.start()

    # ------------------------------------------------------------------
    # elasticity (used by Server.add_replica / remove_replica)
    # ------------------------------------------------------------------
    def _make_executor_locked(self, name):
        """Create *name*'s single-thread executor; caller holds _lock."""
        executor = self._executors.get(name)
        if executor is None:
            executor = ThreadPoolExecutor(
                max_workers=1,
                thread_name_prefix=f"repro-serve-{name}",
            )
            self._executors[name] = executor
        return executor

    def _executor_for(self, replica):
        """The replica's executor, created lazily for replicas added
        after :meth:`start` (the elastic path)."""
        with self._lock:
            return self._make_executor_locked(replica.name)

    def retire_executor(self, name, wait=True) -> None:
        """Shut down a removed replica's executor (drains its queued
        batch first when *wait* is true)."""
        with self._lock:
            executor = self._executors.pop(name, None)
        if executor is not None:
            executor.shutdown(wait=wait)

    # ------------------------------------------------------------------
    def _collect_loop(self):
        while True:
            # wait for room on a replica BEFORE popping, so under
            # overload the backlog accumulates in the admission queue
            # (bounded, shed-policed) rather than downstream of it
            self.pool.wait_for_room()
            batch = self.queue.next_batch(self.max_batch_size, self.max_wait_s)
            if not batch:
                return  # queue closed and empty
            self._route(batch)

    def _route(self, batch):
        """Fail expired requests, group the rest, dispatch each group.

        The caller waited for room for the first group; every further
        group waits for its own.
        """
        now = time.perf_counter()
        live = []
        for req in batch:
            if req.expired(now):
                self._fail_deadline(req, now)
            else:
                live.append(req)
        groups = {}
        for req in live:
            groups.setdefault(req.tier, []).append(req)
        # full quality first, then the queue's ladder order (deeper
        # tiers last), then any tier the queue does not know about
        rank = {None: 0}
        for i, name in enumerate(getattr(self.queue, "tiers", ()) or ()):
            rank.setdefault(name, i + 1)
        order = sorted(groups, key=lambda t: (rank.get(t, len(rank)), str(t)))
        for i, tier in enumerate(order):
            if i:
                self.pool.wait_for_room()
            self._dispatch(groups[tier], tier)

    def _fail_deadline(self, req, now):
        if not req.fail(DeadlineExceeded(req.waited_ms(now), req.deadline_ms)):
            return  # caller already cancelled the future
        with self._lock:
            self.deadline_exceeded += 1
            self.failed += 1

    def _dispatch(self, group, tier):
        """Lease a replica and run *group* on it, on the tier the
        replica executes (:meth:`~repro.serve.Replica.executed_tier`)."""
        try:
            replica = self.pool.acquire()
        except ReplicaUnavailable as exc:
            failed = sum(1 for req in group if req.fail(exc))
            with self._lock:
                self.failed += failed
            return
        tier = replica.executed_tier(tier)

        def run():
            # Everything here runs on a ThreadPoolExecutor worker, where
            # an escaped exception is silently swallowed — so the entire
            # body is fenced and any failure (np.stack on a wrong-shaped
            # payload, replica errors, a short row count) fails every
            # still-unresolved request in the group rather than leaving
            # futures pending forever.
            try:
                # re-check deadlines: time may have passed in the
                # replica's executor queue, and fail-fast must hold there
                now = time.perf_counter()
                live = []
                for req in group:
                    if req.expired(now):
                        self._fail_deadline(req, now)
                    else:
                        live.append(req)
                if not live:
                    return
                tracer = self.tracer
                traced = (
                    [r for r in live if r.trace_id is not None]
                    if tracer is not None else []
                )
                if not traced:
                    self._execute(replica, live, tier, None)
                else:
                    # retroactive queue-wait spans, one per sampled
                    # request: submit time -> batch execution start
                    for req in traced:
                        tracer.add_span(
                            "admission", req.t_submit, now,
                            trace_ids=[req.trace_id],
                            priority=req.priority.name,
                            tier=req.tier or "full",
                        )
                    with tracer.span(
                        "batch",
                        trace_ids=[r.trace_id for r in traced],
                        size=len(live), tier=tier or "full",
                        replica=replica.name,
                    ):
                        self._execute(replica, live, tier, tracer)
            except BaseException as exc:  # typed failure to every waiter
                failed = sum(1 for req in group if req.fail(exc))
                with self._lock:
                    self.failed += failed
            finally:
                self.pool.release(replica)

        self._executor_for(replica).submit(run)

    def _execute(self, replica, live, tier, tracer):
        """Stack, run and deliver one already-deadline-checked group.

        Runs on the replica's executor thread inside ``run``'s fence;
        when *tracer* is set the caller already opened the ``batch``
        span, and the ``dispatch`` span opened here is the ambient
        parent the replica's session / solver / kernel spans attach to.
        """
        samples = np.stack([req.payload for req in live])
        if tracer is None:
            rows = replica.run(samples, tier=tier)
        else:
            with tracer.span("dispatch", replica=replica.name,
                             size=len(live), tier=tier or "full"):
                rows = replica.run(samples, tier=tier)
        if len(rows) != len(live):
            raise RuntimeError(
                f"replica {replica.name} returned {len(rows)} rows "
                f"for a {len(live)}-sample batch"
            )
        delivered = [
            req for req, row in zip(live, rows) if req.resolve(row)
        ]
        with self._lock:
            self.dispatched_batches += 1
            self.completed += len(delivered)
            if tier is not None:
                self.degraded_dispatched += len(delivered)
            self.dispatched_by_tier[tier or "full"] += len(delivered)
            for req in delivered:
                self.by_priority[req.priority.name] += 1

    # ------------------------------------------------------------------
    def stop(self, drain=True) -> None:
        """Stop dispatching; with *drain* serve queued work first,
        otherwise fail it with :class:`~repro.serve.ServerStopped`."""
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            collector = self._collector
        self.queue.close()
        if not drain:
            failed = sum(
                1 for req in self.queue.drain_remaining()
                if req.fail(ServerStopped("server closed before dispatch"))
            )
            with self._lock:
                self.failed += failed
        if collector is not None:
            collector.join()
            with self._lock:
                executors = list(self._executors.values())
            for executor in executors:
                executor.shutdown(wait=True)

    def snapshot(self) -> dict:
        """Dispatch counters as a plain dict."""
        with self._lock:
            return {
                "dispatched_batches": self.dispatched_batches,
                "completed": self.completed,
                "failed": self.failed,
                "deadline_exceeded": self.deadline_exceeded,
                "degraded_dispatched": self.degraded_dispatched,
                "dispatched_by_tier": dict(self.dispatched_by_tier),
                "by_priority": dict(self.by_priority),
            }


__all__ = ["Scheduler"]
