"""p99-driven autoscaler: add/drain remote replicas under load.

The control loop watches exactly the signals the serving stack already
exports — :func:`repro.serve.metrics.snapshot` (aggregate p99, queue
depth vs capacity) and, when the server traces, the p99 **tail
attribution** from :func:`repro.trace.tail_attribution` — and converts
them into scale decisions against a fixed roster of cluster workers:

* **up** when p99 breaches ``p99_high_ms`` or the queue is above
  ``queue_high`` of capacity, *and* the trace tail (when available)
  blames queueing rather than compute — adding replicas cannot fix a
  compute-bound tail on saturated hosts, so a compute-dominated tail
  holds instead;
* **down** when p99 is under ``p99_low_ms`` with a near-empty queue
  and the pool is above ``min_replicas``;
* **hold** otherwise, during the post-scale ``cooldown_s``, and while
  there is no traffic to judge (NaN p99).

Decisions are made by the pure :meth:`Autoscaler.evaluate` — unit
tests drive it with hand-built snapshots, no sockets involved — and
applied by :meth:`Autoscaler.step`, which connects one
:class:`~repro.cluster.RemoteReplica` slot (round-robin over the
workers with spare advertised capacity) or drains the most recently
added one through ``server.remove_replica(..., drain=True)``.  Every
decision and action lands in an events log exposed via
:meth:`snapshot` and the metrics report.
"""

from __future__ import annotations

import math
import threading
import time

from .remote import RemoteReplica
from .transport import DEFAULT_TIMEOUT_S, round_trip_timeout
from .wire import format_address, parse_address


class Autoscaler:
    """Scale a :class:`~repro.serve.Server` across cluster workers.

    Parameters
    ----------
    server:
        the serving facade to scale; must expose ``add_replica`` /
        ``remove_replica`` (PR 9's elastic pool surface).
    workers:
        roster of worker addresses (``"host:port"`` or tuples) the
        autoscaler may connect replicas from.
    min_replicas / max_replicas:
        pool-size bounds (``max_replicas=None`` means the roster's
        total advertised capacity).
    p99_high_ms / p99_low_ms / queue_high:
        the scale-up / scale-down thresholds described in the module
        docstring.
    interval_s / cooldown_s:
        loop period and post-action quiet time.
    timeout_s:
        per-round-trip deadline for replicas the autoscaler connects;
        finite (see :func:`~repro.cluster.transport.round_trip_timeout`).
    """

    def __init__(self, server, workers, *, min_replicas=1,
                 max_replicas=None, p99_high_ms=50.0, p99_low_ms=10.0,
                 queue_high=0.5, interval_s=1.0, cooldown_s=3.0,
                 timeout_s=DEFAULT_TIMEOUT_S):
        self.server = server
        self.workers = [
            parse_address(w) if isinstance(w, str) else (str(w[0]), int(w[1]))
            for w in workers
        ]
        if not self.workers:
            raise ValueError("an Autoscaler needs at least one worker")
        self.min_replicas = max(1, int(min_replicas))
        self.max_replicas = (
            None if max_replicas is None else int(max_replicas)
        )
        if (self.max_replicas is not None
                and self.max_replicas < self.min_replicas):
            raise ValueError(
                f"max_replicas {self.max_replicas} < min_replicas "
                f"{self.min_replicas}"
            )
        self.p99_high_ms = float(p99_high_ms)
        self.p99_low_ms = float(p99_low_ms)
        self.queue_high = float(queue_high)
        self.interval_s = float(interval_s)
        self.cooldown_s = float(cooldown_s)
        self.timeout_s = round_trip_timeout(timeout_s)
        self._lock = threading.Lock()
        self._events = []        # protected by _lock
        self._remotes = []       # replicas we added; protected by _lock
        self._capacity = {}      # address -> advertised slots; _lock
        self._last_action_t = None
        self._stop = threading.Event()
        self._thread = None

    # ------------------------------------------------------------------
    # the pure decision
    # ------------------------------------------------------------------
    def evaluate(self, metrics, attribution=None) -> dict:
        """One scale decision from a metrics snapshot — no sockets.

        ``metrics`` is a :func:`repro.serve.metrics.snapshot` dict;
        ``attribution`` (optional) is a
        :func:`repro.trace.tail_attribution` dict.  Returns ``{action:
        "up"|"down"|"hold", reason, p99_ms, queue_frac, dominant}``.
        """
        agg = metrics.get("aggregate", {})
        p99 = float(agg.get("p99_ms", float("nan")))
        queue = metrics.get("queue") or {}
        capacity = max(1, int(queue.get("capacity", 1)))
        queue_frac = float(queue.get("depth", 0)) / capacity
        dominant = attribution.get("dominant") if attribution else None
        n = len(self.server.pool)

        def decision(action, reason):
            return {
                "action": action, "reason": reason, "p99_ms": p99,
                "queue_frac": queue_frac, "dominant": dominant,
                "replicas": n,
            }

        if math.isnan(p99) and queue_frac == 0.0:
            return decision("hold", "no traffic to judge")
        hot = (not math.isnan(p99) and p99 >= self.p99_high_ms) \
            or queue_frac >= self.queue_high
        if hot:
            if dominant is not None and dominant not in (
                    "queue", "admission", "dispatch_overhead"):
                return decision(
                    "hold",
                    f"tail is {dominant}-dominated; more replicas "
                    f"won't shorten it",
                )
            if self.max_replicas is not None and n >= self.max_replicas:
                return decision("hold", "at max_replicas")
            return decision(
                "up",
                f"p99 {p99:.1f} ms / queue {queue_frac:.0%} over "
                f"threshold",
            )
        cold = (not math.isnan(p99) and p99 <= self.p99_low_ms
                and queue_frac <= 0.1)
        if cold and n > self.min_replicas:
            with self._lock:
                have_remotes = bool(self._remotes)
            if have_remotes:
                return decision(
                    "down", f"p99 {p99:.1f} ms under the low threshold"
                )
            return decision("hold", "nothing autoscaled to drain")
        return decision("hold", "within thresholds")

    # ------------------------------------------------------------------
    # applying decisions
    # ------------------------------------------------------------------
    def step(self) -> dict:
        """Evaluate once and apply the decision (cooldown-gated)."""
        now = time.monotonic()
        with self._lock:
            last = self._last_action_t
        if last is not None and now - last < self.cooldown_s:
            return {"action": "hold", "reason": "cooldown"}
        metrics = self.server.metrics()
        attribution = None
        tracer = getattr(self.server, "tracer", None)
        if tracer is not None:
            from ..trace import tail_attribution

            spans = tracer.spans()
            if spans:
                attribution = tail_attribution(spans)
        decision = self.evaluate(metrics, attribution)
        if decision["action"] == "up":
            applied = self.scale_up()
            decision = dict(decision, applied=applied)
        elif decision["action"] == "down":
            applied = self.scale_down()
            decision = dict(decision, applied=applied)
        self._record("decision", decision)
        return decision

    def _pick_worker(self):
        """The roster worker with the most spare advertised capacity.

        Unknown capacity (never connected) counts as one spare slot so
        every worker gets probed before any is doubled up.
        """
        with self._lock:
            active = {}
            for replica in self._remotes:
                active[replica.address] = active.get(replica.address, 0) + 1
            best, best_spare = None, 0
            for address in self.workers:
                key = format_address(address)
                cap = self._capacity.get(key)
                spare = (1 if cap is None else cap) - active.get(key, 0)
                if spare > best_spare:
                    best, best_spare = address, spare
            return best

    def scale_up(self):
        """Connect one more remote replica slot; returns its name."""
        address = self._pick_worker()
        if address is None:
            self._record("scale_up_skipped", {"reason": "roster full"})
            return None
        with self._lock:
            index = len(self._remotes)
        name = f"{format_address(address)}/auto{index}"
        try:
            replica = RemoteReplica(
                address, name=name, slot=index, timeout_s=self.timeout_s
            )
        except Exception as exc:
            self._record("scale_up_failed", {
                "address": format_address(address),
                "error": f"{type(exc).__name__}: {exc}",
            })
            return None
        self.server.add_replica(replica)
        with self._lock:
            self._remotes.append(replica)
            self._capacity[replica.address] = int(
                replica.info.get("replicas", 1)
            )
            self._last_action_t = time.monotonic()
        self._record("scaled_up", {"replica": replica.name,
                                   "address": replica.address})
        return replica.name

    def scale_down(self):
        """Drain and close the most recently added remote replica."""
        with self._lock:
            if not self._remotes:
                return None
            if len(self.server.pool) - 1 < self.min_replicas:
                return None
            replica = self._remotes.pop()
            self._last_action_t = time.monotonic()
        self.server.remove_replica(replica.name, drain=True)
        replica.close()
        self._record("scaled_down", {"replica": replica.name,
                                     "address": replica.address})
        return replica.name

    # ------------------------------------------------------------------
    # loop / introspection
    # ------------------------------------------------------------------
    def start(self):
        """Run :meth:`step` every ``interval_s`` in a daemon thread."""
        with self._lock:
            if self._thread is not None:
                return self
            thread = threading.Thread(
                target=self._loop, name="cluster-autoscaler", daemon=True
            )
            self._thread = thread
        thread.start()
        return self

    def _loop(self):
        while not self._stop.wait(self.interval_s):
            try:
                self.step()
            except Exception as exc:  # keep the loop alive; log it
                self._record("step_error", {
                    "error": f"{type(exc).__name__}: {exc}"
                })

    def close(self) -> None:
        """Stop the loop; replicas already added stay in the pool."""
        self._stop.set()
        with self._lock:
            thread = self._thread
            self._thread = None
        if thread is not None:
            thread.join(timeout=5)  # joined outside the lock

    def _record(self, kind, detail):
        with self._lock:
            self._events.append({"event": kind, **detail})
            del self._events[:-200]  # bounded log

    @property
    def events(self):
        with self._lock:
            return list(self._events)

    def snapshot(self) -> dict:
        """Autoscaler state for the metrics report."""
        with self._lock:
            return {
                "workers": [format_address(a) for a in self.workers],
                "min_replicas": self.min_replicas,
                "max_replicas": self.max_replicas,
                "autoscaled_replicas": [r.name for r in self._remotes],
                "events": list(self._events[-10:]),
            }

    def __repr__(self):
        with self._lock:
            n = len(self._remotes)
        return (
            f"Autoscaler(workers={len(self.workers)}, added={n}, "
            f"bounds=[{self.min_replicas}, {self.max_replicas}])"
        )


__all__ = ["Autoscaler"]
