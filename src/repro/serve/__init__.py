"""repro.serve — the production serving layer over the runtime.

::

    submit(x, priority, deadline) ─▶ AdmissionQueue ─▶ Scheduler ─▶ ReplicaPool
                                     (bounded,         (batching,    (N sessions,
                                      shedding)         deadlines,    least-work
                                                        priority)     routing,
                                                                      health)

This package turns the runtime's ``InferenceSession`` into a
servable system:

* :class:`ReplicaPool` — N :class:`~repro.runtime.InferenceSession`
  replicas (mixed kernel backends allowed), least-outstanding-work
  routing, per-replica health tracking, thread- or forked-process
  execution;
* :class:`AdmissionQueue` — a bounded priority queue with typed load
  shedding (``reject`` / ``reject-oldest`` / ``degrade``, the last
  admitting overload traffic onto an ordered **degrade ladder** —
  ``reduced`` ODE steps, then ``int8``, then ``int4`` fixed point; see
  :mod:`repro.serve.tiers`), every active tier statically certified by
  the overflow checker at :meth:`Server.build`
  (:mod:`repro.serve.certify`);
* :class:`Scheduler` — dynamic batching per replica (a partial batch
  waits at most ``max_wait_ms``, and only while it is below the fill
  recent batches reached), deadline fail-fast
  (:class:`DeadlineExceeded`), priority classes drained high-first;
* :class:`Server` — the facade: ``submit() / predict() / health() /
  metrics()``, with :mod:`~repro.serve.metrics` aggregating every
  replica's :class:`~repro.runtime.SessionStats` into one snapshot;
* :mod:`~repro.serve.loadgen` — a seeded open-loop Poisson load
  harness (``python -m repro.serve``) so soak runs and benchmarks
  are reproducible; ``--trace out.json`` records per-request
  :mod:`repro.trace` spans and writes a Chrome/Perfetto trace.

See ``docs/SERVING.md`` for semantics and tuning,
``docs/OBSERVABILITY.md`` for tracing, and ``docs/ARCHITECTURE.md``
§12–§13 for how the pieces fit.
"""

from .admission import POLICIES, AdmissionQueue
from .certify import certify_ladder, certify_tier
from .errors import (
    DeadlineExceeded,
    QueueFull,
    ReplicaUnavailable,
    ServeError,
    ServerStopped,
    TierCertificationError,
)
from .loadgen import (
    LoadReport,
    arrival_offsets,
    calibrate_rate,
    pick_priorities,
    run_load,
)
from .metrics import render_report, snapshot
from .pool import ProcessReplica, Replica, ReplicaPool
from .request import Priority, Request
from .scheduler import Scheduler
from .server import Server
from .tiers import BUILTIN_TIERS, DEFAULT_LADDER, TierSpec, resolve_ladder

__all__ = [
    "Server",
    "ReplicaPool",
    "Replica",
    "ProcessReplica",
    "Scheduler",
    "AdmissionQueue",
    "POLICIES",
    "Priority",
    "Request",
    "TierSpec",
    "BUILTIN_TIERS",
    "DEFAULT_LADDER",
    "resolve_ladder",
    "certify_tier",
    "certify_ladder",
    "ServeError",
    "DeadlineExceeded",
    "QueueFull",
    "ServerStopped",
    "ReplicaUnavailable",
    "TierCertificationError",
    "snapshot",
    "render_report",
    "arrival_offsets",
    "pick_priorities",
    "run_load",
    "calibrate_rate",
    "LoadReport",
]
