"""SessionConfig — one bundled value for session execution options.

The kernel backend and the serving options built on top of sessions
(cluster workers, autoscaling, online adaptation) travel as one frozen
dataclass through every layer that builds sessions
(:class:`~repro.runtime.InferenceSession`,
:class:`~repro.serve.ReplicaPool`, :class:`~repro.serve.Server`), so
adding an option never touches every signature on the path:

>>> from repro.runtime import InferenceSession, SessionConfig
>>> cfg = SessionConfig(backend="fused")
>>> session = InferenceSession(model, config=cfg)          # doctest: +SKIP

New options land here only.  Observation is not an option: a session
traces under the ambient tracer (:func:`repro.trace.current_tracer`)
and counts kernels inside :func:`repro.kernels.collect`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Optional

__all__ = ["SessionConfig"]


@dataclass(frozen=True)
class SessionConfig:
    """Bundled execution options for inference sessions and servers.

    Attributes
    ----------
    backend:
        kernel backend name from :mod:`repro.kernels` (``"reference"``
        or ``"fused"``; ``"compiled"`` is an alias of ``"fused"``).
        ``None`` takes the thread's ambient/default backend when the
        session is built (see :func:`repro.kernels.resolve_backend`).
        The backend also picks the session's plan: the oracle under
        ``reference``, the fast executor otherwise.
    workers:
        cluster worker addresses (``"host:port"`` strings) whose
        replica slots :meth:`repro.serve.Server.build` connects into
        the pool as :class:`repro.cluster.RemoteReplica` instances
        (the ``--workers`` CLI flag lands here).
    autoscale:
        ``(min_replicas, max_replicas)`` bounds for a
        :class:`repro.cluster.Autoscaler` the server starts over
        ``workers`` (the ``--autoscale min:max`` CLI flag); requires
        ``workers`` to be non-empty.  ``None`` disables autoscaling.
    adapt:
        an :class:`repro.adapt.AdaptConfig` to have
        :meth:`repro.serve.Server.build` attach a streaming
        :class:`repro.adapt.AdaptationController` (online fine-tuning +
        hot weight swap), or ``True`` for a default-constructed one
        (the ``--adapt`` CLI flag); ``None`` disables adaptation.
    """

    backend: Optional[str] = None
    workers: tuple = ()
    autoscale: Optional[tuple] = None
    adapt: Any = None

    def __post_init__(self):
        object.__setattr__(
            self, "workers", tuple(str(w) for w in (self.workers or ()))
        )
        if self.workers:
            from ..cluster.wire import parse_address

            for worker in self.workers:
                parse_address(worker)  # validate eagerly, typed error
        if self.autoscale is not None:
            bounds = tuple(int(b) for b in self.autoscale)
            if len(bounds) != 2:
                raise ValueError(
                    f"autoscale must be (min, max), got {self.autoscale!r}"
                )
            lo, hi = bounds
            if lo < 1 or hi < lo:
                raise ValueError(
                    f"autoscale bounds need 1 <= min <= max, got "
                    f"({lo}, {hi})"
                )
            if not self.workers:
                raise ValueError(
                    "autoscale needs at least one cluster worker "
                    "(workers=...)"
                )
            object.__setattr__(self, "autoscale", bounds)
        if self.backend is not None:
            from .. import kernels

            kernels.get_backend(self.backend)  # validate eagerly
        if self.adapt is not None:
            from ..adapt import AdaptConfig

            if self.adapt is True:
                object.__setattr__(self, "adapt", AdaptConfig())
            elif not isinstance(self.adapt, AdaptConfig):
                raise ValueError(
                    f"adapt must be an AdaptConfig, True or None, got "
                    f"{self.adapt!r}"
                )

    def with_backend(self, backend) -> "SessionConfig":
        """A copy with *backend* swapped in — how a cluster worker
        applies its ``--backend`` flag to a shared config."""
        return dataclasses.replace(self, backend=backend)
