"""SessionConfig — one bundled value for session execution options.

Backend selection, instrumentation and tracing used to travel as three
loose keyword arguments through every layer that builds sessions
(:class:`~repro.runtime.InferenceSession`,
:class:`~repro.serve.ReplicaPool`, :class:`~repro.serve.Server`), so
adding an option meant touching every signature on the path.
:class:`SessionConfig` carries them as a single frozen dataclass:

>>> from repro.runtime import InferenceSession, SessionConfig
>>> cfg = SessionConfig(backend="fused", instrument=True)
>>> session = InferenceSession(model, config=cfg)          # doctest: +SKIP

New options land here only.
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
    instrument:
        collect per-kernel call counts / wall time / bytes into the
        session's :class:`~repro.runtime.SessionStats`.
    trace:
        a :class:`repro.trace.Tracer` to record spans into, or ``True``
        to have the config build a fresh default tracer (exposed as
        ``config.tracer``), or ``None`` for no tracing.
    kernel_spans:
        whether the config-built tracer records per-dispatch
        ``kernel.*`` spans.  Only meaningful with ``trace=True`` — pass
        a preconfigured tracer instead when you own the tracer.
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
    instrument: bool = False
    trace: Any = None
    kernel_spans: Optional[bool] = None
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
        if self.kernel_spans is not None and self.trace is not True:
            raise ValueError(
                "kernel_spans only applies when SessionConfig builds the "
                "tracer (trace=True); configure your own Tracer otherwise"
            )
        if self.adapt is not None:
            from ..adapt import AdaptConfig

            if self.adapt is True:
                object.__setattr__(self, "adapt", AdaptConfig())
            elif not isinstance(self.adapt, AdaptConfig):
                raise ValueError(
                    f"adapt must be an AdaptConfig, True or None, got "
                    f"{self.adapt!r}"
                )
        if self.trace is True:
            from ..trace import Tracer

            tracer = Tracer(
                kernel_spans=True if self.kernel_spans is None
                else self.kernel_spans
            )
            object.__setattr__(self, "trace", tracer)

    @property
    def tracer(self):
        """The resolved tracer, or ``None`` (alias for ``trace`` once
        ``trace=True`` has been materialised)."""
        return self.trace

    def with_backend(self, backend) -> "SessionConfig":
        """A copy with *backend* swapped in — how a cluster worker
        applies its ``--backend`` flag to a shared config.  The
        resolved tracer is carried over as-is (``kernel_spans`` has
        already been folded into it)."""
        return dataclasses.replace(self, backend=backend, kernel_spans=None)
