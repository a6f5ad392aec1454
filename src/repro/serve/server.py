"""The serving facade: :class:`Server`.

Wires admission control, the scheduler and a replica pool into one
object::

    pool = ReplicaPool.build("ode_botnet", "tiny", n_replicas=2,
                             config=SessionConfig(backend="fused"))
    with Server(pool, queue_capacity=64, shed_policy="reject") as server:
        fut = server.submit(x, priority=Priority.HIGH, deadline_ms=50)
        row = fut.result()
        print(server.metrics_report())

``submit`` never blocks on model execution and always returns a future
that resolves — to the output row, or to a typed serving error
(:class:`~repro.serve.QueueFull`,
:class:`~repro.serve.DeadlineExceeded`,
:class:`~repro.serve.ServerStopped`,
:class:`~repro.serve.ReplicaUnavailable`).  ``predict`` is the blocking
convenience wrapper, bit-exact with the wrapped sessions' own
``predict``.
"""

from __future__ import annotations

import time

import numpy as np

from .admission import AdmissionQueue
from .certify import certify_ladder
from .errors import DeadlineExceeded, ServerStopped
from .metrics import render_report, snapshot
from .pool import ReplicaPool
from .request import Priority, Request
from .scheduler import Scheduler
from .tiers import resolve_ladder


class Server:
    """Replica pool + admission control + scheduler behind one API.

    Parameters
    ----------
    pool:
        a :class:`~repro.serve.ReplicaPool`; the server takes ownership
        and closes it on :meth:`close`.
    max_batch_size, max_wait_ms:
        micro-batching knobs (see :class:`~repro.serve.Scheduler`).
    queue_capacity, shed_policy, degrade_headroom:
        admission control knobs (see
        :class:`~repro.serve.AdmissionQueue`).
    tiers:
        ordered degrade-ladder tier *names* for the admission queue's
        bands (default: the three-rung
        :data:`~repro.serve.tiers.DEFAULT_LADDER` —
        ``reduced -> int8 -> int4``).  Only meaningful under
        ``shed_policy="degrade"``.
    default_deadline_ms:
        deadline applied to requests submitted without one (``None``
        disables).
    tracer:
        optional :class:`repro.trace.Tracer`; sampled requests (per
        the tracer's ``sample_every``) get a trace id at submission and
        record the full ``request`` → ``admission`` → ``batch`` →
        ``dispatch`` → ``session`` → ``solver.step`` → ``kernel.*``
        span chain.  ``None`` (default) disables tracing at zero cost.
    """

    def __init__(self, pool, *, max_batch_size=8, max_wait_ms=2.0,
                 queue_capacity=64, shed_policy="reject",
                 degrade_headroom=None, tiers=None,
                 default_deadline_ms=None, tracer=None):
        self.pool = pool
        self.tracer = tracer
        self.queue = AdmissionQueue(queue_capacity, shed_policy,
                                    degrade_headroom=degrade_headroom,
                                    tiers=tiers)
        self.scheduler = Scheduler(pool, self.queue,
                                   max_batch_size=max_batch_size,
                                   max_wait_ms=max_wait_ms,
                                   tracer=tracer)
        self.default_deadline_ms = default_deadline_ms
        #: a :class:`repro.cluster.Autoscaler` when one was attached
        #: (via config.autoscale or manually); closed with the server
        self.autoscaler = None
        #: a :class:`repro.adapt.AdaptationController` when one was
        #: attached (via config.adapt or manually); labelled submits
        #: feed its sample tap and :meth:`close` stops its loop
        self.adaptation = None
        self._closed = False
        self.scheduler.start()

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, model="ode_botnet", profile="tiny", n_replicas=2, *,
              config=None, seed=0, pretrained_state=None,
              mode="thread", tiers=None, certify=True, **server_kw):
        """Build pool and server from the model registry in one call.

        ``config`` is a shared :class:`~repro.runtime.SessionConfig`
        for the replica sessions.  Remaining keywords go to the
        :class:`Server` constructor; ``tracer=`` is the one way to
        trace the server, and its replica sessions trace only the
        batches it samples.

        When ``shed_policy="degrade"`` the degrade ladder (``tiers``,
        default :data:`~repro.serve.tiers.DEFAULT_LADDER`) is built per
        replica from the shared weight set, and — unless
        ``certify=False`` — every active tier is **statically
        certified** first by the overflow checker (see
        :mod:`repro.serve.certify`): an uncertifiable ladder raises
        :class:`~repro.serve.TierCertificationError` before any replica
        starts.
        """
        ladder = None
        if server_kw.get("shed_policy") == "degrade":
            ladder = resolve_ladder(tiers)
            if certify:
                certify_ladder(ladder, model, profile, seed=seed)
        pool = ReplicaPool.build(
            model, profile, n_replicas, config=config,
            seed=seed, pretrained_state=pretrained_state, mode=mode,
            tiers=ladder,
        )
        if config is not None and config.workers:
            # shard across cluster workers: one RemoteReplica per
            # advertised replica slot joins the local pool before the
            # scheduler starts
            from ..cluster import connect_worker

            for address in config.workers:
                for replica in connect_worker(address):
                    pool.add(replica)
        if ladder is not None:
            server_kw.setdefault("tiers", tuple(t.name for t in ladder))
        server = cls(pool, **server_kw)
        if config is not None and config.autoscale is not None:
            from ..cluster import Autoscaler

            lo, hi = config.autoscale
            server.autoscaler = Autoscaler(
                server, config.workers,
                min_replicas=lo, max_replicas=hi,
            ).start()
        if config is not None and config.adapt is not None:
            from ..adapt import AdaptationController

            server.adaptation = AdaptationController(
                pool, config=config.adapt, tracer=server.tracer,
            )
            server.adaptation.start()
        return server

    # ------------------------------------------------------------------
    def submit(self, x, *, priority=Priority.NORMAL, deadline_ms=None,
               label=None):
        """Queue one sample; returns a future that always resolves.

        ``deadline_ms`` defaults to the server's ``default_deadline_ms``;
        a request that cannot be dispatched inside its deadline fails
        fast with :class:`~repro.serve.DeadlineExceeded` without
        running the model.

        ``label`` optionally attaches the sample's ground truth: when
        an :attr:`adaptation` controller is live, a copy of the sample
        lands in its bounded tap in O(1) — regardless of the request's
        own fate, since even a request that is later shed carries
        fresh-distribution signal.  Without a controller the label is
        carried but unused.
        """
        if deadline_ms is None:
            deadline_ms = self.default_deadline_ms
        request = Request(x, priority=priority, deadline_ms=deadline_ms,
                          seq=self.queue.next_seq(), label=label)
        if label is not None and self.adaptation is not None:
            self.adaptation.tap.offer(request.payload, label)
        if self.tracer is not None:
            request.trace_id = self.tracer.new_trace()
            if request.trace_id is not None:
                self._arm_request_span(request)
        if self._closed:
            request.fail(ServerStopped("server is closed"))
            return request.future
        if request.expired():
            request.fail(DeadlineExceeded(0.0, request.deadline_ms))
            return request.future
        self.queue.offer(request)
        return request.future

    def _arm_request_span(self, request):
        """Close the root ``request`` span when the future resolves.

        Recorded retroactively (submit time → resolution time) so the
        span exists for every outcome — completion, typed failure and
        caller-side cancellation alike.
        """
        tracer = self.tracer
        trace_id = request.trace_id
        t_submit = request.t_submit

        def _finish(fut):
            if fut.cancelled():
                outcome = "cancelled"
            elif fut.exception() is not None:
                outcome = type(fut.exception()).__name__
            else:
                outcome = "completed"
            tracer.add_span(
                "request", t_submit, time.perf_counter(),
                trace_ids=[trace_id], outcome=outcome,
            )

        request.future.add_done_callback(_finish)

    def predict(self, x, *, priority=Priority.NORMAL, deadline_ms=None,
                timeout=None) -> np.ndarray:
        """Blocking single-sample predict through the serving path."""
        return self.submit(
            x, priority=priority, deadline_ms=deadline_ms
        ).result(timeout=timeout)

    # ------------------------------------------------------------------
    # elasticity
    # ------------------------------------------------------------------
    def add_replica(self, replica) -> None:
        """Put *replica* into routing; its leases add room for
        :data:`~repro.serve.pool.INFLIGHT_PER_REPLICA` more batches in
        flight.

        The scheduler creates the replica's executor lazily on its
        first dispatch, so adding is safe while serving.
        """
        self.pool.add(replica)

    def remove_replica(self, name, drain=True):
        """Take a replica out of routing (draining its in-flight work
        by default; its room leaves with it), retire its executor —
        and return it, still open, for the caller to close."""
        replica = self.pool.remove(name, drain=drain)
        self.scheduler.retire_executor(name, wait=drain)
        return replica

    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Liveness summary: per-replica health + queue depth."""
        replicas = self.pool.health()
        return {
            "ok": not self._closed
            and any(r["healthy"] for r in replicas.values()),
            "closed": self._closed,
            "queue_depth": self.queue.depth,
            "replicas": replicas,
        }

    def metrics(self) -> dict:
        """One aggregated metrics snapshot (see :mod:`~repro.serve.metrics`)."""
        return snapshot(self.pool, self.queue, self.scheduler,
                        tracer=self.tracer, autoscaler=self.autoscaler,
                        adaptation=self.adaptation)

    def metrics_report(self) -> str:
        """The text rendering of :meth:`metrics`."""
        return render_report(self.metrics())

    # ------------------------------------------------------------------
    def close(self, drain=True) -> None:
        """Shut down: stop admissions, then drain (default) or fail
        queued requests; every outstanding future resolves."""
        if self._closed:
            return
        self._closed = True
        if self.autoscaler is not None:
            self.autoscaler.close()  # stop scaling before the drain
        if self.adaptation is not None:
            self.adaptation.close()  # no swaps during/after the drain
        self.scheduler.stop(drain=drain)
        self.pool.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def __repr__(self):
        return (
            f"Server(replicas={len(self.pool)}, "
            f"policy={self.queue.policy!r}, "
            f"capacity={self.queue.capacity}, closed={self._closed})"
        )


__all__ = ["Server"]
