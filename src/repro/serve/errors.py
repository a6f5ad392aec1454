"""Typed failure vocabulary of the serving layer.

Every way a request can fail *by design* (as opposed to a model bug)
has its own exception class, so callers and the load harness can
classify outcomes without string matching:

* :class:`DeadlineExceeded` — the request's latency budget ran out
  while it was still queued; the model never ran.
* :class:`QueueFull` — admission control shed the request (either the
  request itself under ``reject`` / at the hard cap, or a queued victim
  under ``reject-oldest``).
* :class:`ServerStopped` — the server was closed while the request was
  in flight, or a submit arrived after close.
* :class:`ReplicaUnavailable` — every replica is marked unhealthy, so
  there is nowhere to dispatch.
* :class:`TierCertificationError` — a degrade-ladder tier failed the
  static overflow certification at :meth:`~repro.serve.Server.build`
  time; the server refuses to start with an uncertifiable ladder.
"""

from __future__ import annotations


class ServeError(RuntimeError):
    """Base class for every designed-in serving failure."""


class DeadlineExceeded(ServeError):
    """The request's deadline expired before it could be dispatched.

    Carries ``waited_ms`` (time spent queued) and ``deadline_ms`` (the
    budget it was submitted with) for observability.
    """

    def __init__(self, waited_ms, deadline_ms):
        self.waited_ms = float(waited_ms)
        self.deadline_ms = float(deadline_ms)
        super().__init__(
            f"deadline of {self.deadline_ms:.1f} ms exceeded after "
            f"waiting {self.waited_ms:.1f} ms in queue"
        )


class QueueFull(ServeError):
    """Admission control shed this request to bound the queue.

    ``policy`` names the shedding policy that fired and ``depth`` the
    queue depth at the time of the decision.
    """

    def __init__(self, policy, depth):
        self.policy = str(policy)
        self.depth = int(depth)
        super().__init__(
            f"request shed by admission control "
            f"(policy={self.policy!r}, queue depth {self.depth})"
        )


class ServerStopped(ServeError):
    """The server is closed; the request was not (or will not be) run."""


class ReplicaUnavailable(ServeError):
    """No healthy replica is available to run the request."""


class TierCertificationError(ServeError):
    """A degrade-ladder tier failed static certification at build time.

    Raised by :func:`repro.serve.certify.certify_ladder` (and therefore
    :meth:`~repro.serve.Server.build`) when the overflow checker finds
    shape errors — or, for a quantized tier, ``SHP003`` accumulator
    diagnostics meaning the tier's worst-case accumulator would not fit
    a 48-bit DSP cascade.  Carries the offending ``tier`` name and the
    checker's ``diagnostics`` list so CI logs show exactly which site
    overflows.
    """

    def __init__(self, tier, diagnostics):
        self.tier = str(tier)
        self.diagnostics = list(diagnostics)
        preview = "; ".join(str(d) for d in self.diagnostics[:3])
        more = len(self.diagnostics) - 3
        if more > 0:
            preview += f"; ... {more} more"
        super().__init__(
            f"tier {self.tier!r} failed static certification "
            f"({len(self.diagnostics)} diagnostic(s)): {preview}"
        )


__all__ = [
    "ServeError",
    "DeadlineExceeded",
    "QueueFull",
    "ServerStopped",
    "ReplicaUnavailable",
    "TierCertificationError",
]
