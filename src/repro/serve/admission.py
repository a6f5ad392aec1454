"""Admission control: a bounded priority queue with load shedding.

The queue is the *only* buffer between callers and the replicas, and it
is strictly bounded — overload turns into explicit, typed request
failures (or degraded execution) instead of unbounded memory growth.

Shedding policies
-----------------
``reject``
    reject-newest: when the queue is full the incoming request fails
    immediately with :class:`~repro.serve.QueueFull`.  Callers see
    backpressure the instant it happens; queued work is never disturbed.
``reject-oldest``
    the incoming request is admitted and the *oldest* queued request of
    an equal-or-lower priority class is evicted (failed with
    ``QueueFull``).  Freshest-work-wins — the right policy when stale
    answers are worthless.  If no such victim exists (everything queued
    outranks the newcomer), the newcomer is rejected instead.
``degrade``
    between ``capacity`` and ``capacity + degrade_headroom`` requests
    are admitted onto the **degrade ladder** (see
    :mod:`repro.serve.tiers`): the headroom is partitioned into ordered
    bands, one per tier, and the band the queue depth falls in decides
    the request's tier.  A lightly-over queue degrades to the
    ``reduced`` rung (fewer ODE steps); as the backlog deepens,
    requests land on the ``int8`` and finally ``int4`` fixed-point
    rungs — each cheaper than the last, trading accuracy for queue
    drain rate in steps.  Past the hard cap the policy falls back to
    reject-newest, so the bound still holds.  ``degraded_by_tier``
    counts admissions per rung (``degraded_admissions`` remains the
    total).

Ordering is priority-first (higher :class:`~repro.serve.Priority`
classes drain first), FIFO within a class.  A popped batch may mix
degraded and full-quality requests; the scheduler groups them before
dispatch.

:meth:`AdmissionQueue.next_batch` is the one place a batch is formed.
A partial batch waits only while it is smaller than a recent batch, so
a lone caller stops paying the wait while a load that filled a recent
batch keeps getting full ones.
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import deque

from .errors import QueueFull, ServerStopped
from .tiers import DEFAULT_LADDER

#: the recognised shedding policies
POLICIES = ("reject", "reject-oldest", "degrade")

#: how many recently popped batches set the fill a new batch waits for
FILL_WINDOW = 8


def _tier_bands(tier_names, headroom):
    """Partition *headroom* queue slots into per-tier bands.

    The split is as even as integer division allows, with the remainder
    going to the shallowest tiers — so a small headroom engages the
    gentler rungs first and a tier can end up with a zero-width band
    (it simply never fires).  Returns ``[(cumulative_limit, name)]``
    with the last limit equal to *headroom*.
    """
    k = len(tier_names)
    base, rem = divmod(int(headroom), k)
    edges, acc = [], 0
    for i, name in enumerate(tier_names):
        acc += base + (1 if i < rem else 0)
        edges.append((acc, name))
    return edges


class AdmissionQueue:
    """Bounded, priority-ordered request queue with load shedding.

    Parameters
    ----------
    capacity:
        maximum number of queued (full-quality) requests.
    policy:
        one of :data:`POLICIES`; see the module docstring.
    degrade_headroom:
        extra queue slots available to degraded admissions under the
        ``degrade`` policy (default: ``capacity``, i.e. a 2x hard cap).
    tiers:
        ordered tier *names* forming the degrade ladder (default:
        :data:`repro.serve.tiers.DEFAULT_LADDER`).  The headroom is
        split into one band per tier, shallowest first; the band the
        queue depth falls in decides an overflow request's tier.
    """

    def __init__(self, capacity, policy="reject", degrade_headroom=None,
                 tiers=None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; choose {POLICIES}")
        self.capacity = int(capacity)
        self.policy = policy
        self.degrade_headroom = (
            self.capacity if degrade_headroom is None else int(degrade_headroom)
        )
        self.tiers = tuple(
            str(t) for t in (DEFAULT_LADDER if tiers is None else tiers)
        )
        if not self.tiers:
            raise ValueError("the degrade ladder needs at least one tier")
        self._bands = _tier_bands(self.tiers, self.degrade_headroom)
        self._heap = []  # (sort_key, Request)
        self._cond = threading.Condition()
        self._closed = False
        self._seq = 0
        # sizes of the last FILL_WINDOW popped batches (protected by _cond)
        self._recent = deque(maxlen=FILL_WINDOW)
        # counters (all protected by _cond's lock)
        self.admitted = 0
        self.shed_incoming = 0
        self.shed_evicted = 0
        self.degraded_admissions = 0
        self.degraded_by_tier = {name: 0 for name in self.tiers}
        self.high_water = 0

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Current number of queued requests."""
        with self._cond:
            return len(self._heap)

    def next_seq(self) -> int:
        """Allocate the next FIFO sequence number."""
        with self._cond:
            self._seq += 1
            return self._seq

    # ------------------------------------------------------------------
    def offer(self, request) -> bool:
        """Admit *request* or shed per policy; returns True if admitted.

        A shed request has its future failed with a typed
        :class:`~repro.serve.QueueFull` (or
        :class:`~repro.serve.ServerStopped` after close) before this
        returns — the caller always holds a future that will resolve.
        """
        victim = None
        with self._cond:
            if self._closed:
                request.fail(ServerStopped("server is closed"))
                return False
            depth = len(self._heap)
            if depth >= self.capacity:
                if self.policy == "reject":
                    self.shed_incoming += 1
                    request.fail(QueueFull(self.policy, depth))
                    return False
                if self.policy == "reject-oldest":
                    victim = self._evict_oldest_locked(request.priority)
                    if victim is None:
                        self.shed_incoming += 1
                        request.fail(QueueFull(self.policy, depth))
                        return False
                    self.shed_evicted += 1
                else:  # degrade
                    if depth >= self.capacity + self.degrade_headroom:
                        self.shed_incoming += 1
                        request.fail(QueueFull(self.policy, depth))
                        return False
                    over = depth - self.capacity
                    for limit, name in self._bands:
                        if over < limit:
                            request.tier = name
                            break
                    self.degraded_admissions += 1
                    self.degraded_by_tier[request.tier] += 1
            heapq.heappush(self._heap, (request.sort_key(), request))
            self.admitted += 1
            self.high_water = max(self.high_water, len(self._heap))
            self._cond.notify()
        if victim is not None:
            victim.fail(QueueFull(self.policy, self.capacity))
        return True

    def _evict_oldest_locked(self, incoming_priority):
        """Remove the oldest request whose priority <= *incoming*'s;
        None when every queued request outranks the newcomer."""
        best = None
        for i, (_, req) in enumerate(self._heap):
            if req.priority > incoming_priority:
                continue
            if best is None or req.seq < self._heap[best][1].seq:
                best = i
        if best is None:
            return None
        _, victim = self._heap[best]
        self._heap[best] = self._heap[-1]
        self._heap.pop()
        heapq.heapify(self._heap)
        return victim

    # ------------------------------------------------------------------
    def next_batch(self, max_batch, max_wait_s, poll_s=0.05):
        """Pop up to *max_batch* requests, priority classes high-first.

        Blocks until at least one request is available (or the queue is
        closed *and* empty, returning ``[]``), then takes every queued
        request up to ``max_batch``.  It waits for more only while the
        batch is below its fill — the largest of the last
        :data:`FILL_WINDOW` batches, capped at ``max_batch`` (which it
        is until that many batches were popped) — and never longer
        than ``max_wait_s`` after the first request.
        """
        batch = []
        with self._cond:
            while not self._heap:
                if self._closed:
                    return []
                self._cond.wait(poll_s)
            fill = max_batch
            if len(self._recent) == FILL_WINDOW:
                fill = min(max(self._recent), max_batch)
            batch.append(heapq.heappop(self._heap)[1])
            deadline = time.perf_counter() + float(max_wait_s)
            while len(batch) < max_batch:
                if self._heap:
                    batch.append(heapq.heappop(self._heap)[1])
                    continue
                remaining = deadline - time.perf_counter()
                if len(batch) >= fill or remaining <= 0 or self._closed:
                    break
                self._cond.wait(remaining)
            self._recent.append(len(batch))
        return batch

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop admitting; wake every waiting consumer.

        Queued requests stay queued — the scheduler decides whether to
        drain them (serve) or fail them (fast shutdown) via
        :meth:`drain_remaining`.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def drain_remaining(self):
        """Pop and return everything still queued (after :meth:`close`)."""
        with self._cond:
            remaining = [req for _, req in self._heap]
            self._heap.clear()
        remaining.sort(key=lambda r: r.sort_key())
        return remaining

    def snapshot(self) -> dict:
        """Queue observability counters as a plain dict."""
        with self._cond:
            return {
                "depth": len(self._heap),
                "capacity": self.capacity,
                "policy": self.policy,
                "admitted": self.admitted,
                "shed_incoming": self.shed_incoming,
                "shed_evicted": self.shed_evicted,
                "degraded_admissions": self.degraded_admissions,
                "degraded_by_tier": dict(self.degraded_by_tier),
                "tiers": list(self.tiers),
                "high_water": self.high_water,
            }


__all__ = ["AdmissionQueue", "POLICIES", "FILL_WINDOW"]
