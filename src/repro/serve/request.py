"""The unit of work the serving layer moves around: :class:`Request`.

A request is one sample plus its serving contract — priority class,
optional deadline, and the :class:`~concurrent.futures.Future` the
caller holds.  Ownership is strictly linear: the admission queue owns a
request until it is popped or shed; whoever removes it from the queue
resolves its future exactly once.  That discipline (not future-side
locking) is what guarantees "zero hung futures" under shutdown, load
shedding and deadline expiry all racing each other.  The one actor
outside that ownership chain is the caller, who may *cancel* the
future it holds — so :meth:`Request.resolve` and :meth:`Request.fail`
treat an already-done future as a no-op rather than an error.
"""

from __future__ import annotations

import time
from concurrent.futures import Future, InvalidStateError
from enum import IntEnum

import numpy as np


class Priority(IntEnum):
    """Request priority class; higher values drain first.

    ``HIGH`` is for latency-sensitive interactive traffic, ``NORMAL``
    the default, ``LOW`` for bulk/backfill work that should only use
    spare capacity.
    """

    LOW = 0
    NORMAL = 1
    HIGH = 2


class Request:
    """One queued sample and its serving contract.

    Parameters
    ----------
    payload:
        the sample (no batch axis), converted to ``np.ndarray``.
    priority:
        a :class:`Priority`; higher classes are dispatched first.
    deadline_ms:
        optional end-to-end queueing budget.  The absolute expiry is
        fixed at construction (``perf_counter`` clock); a request still
        queued past it fails fast with
        :class:`~repro.serve.DeadlineExceeded` instead of running.
    seq:
        monotone sequence number (FIFO order within a priority class).
    label:
        optional ground-truth class label for the adaptation tap
        (:mod:`repro.adapt`); ignored by admission and dispatch.
    """

    __slots__ = (
        "payload", "priority", "seq", "future",
        "t_submit", "t_expiry", "deadline_ms", "tier", "trace_id", "label",
    )

    def __init__(self, payload, *, priority=Priority.NORMAL, deadline_ms=None,
                 seq=0, now=None, label=None):
        now = time.perf_counter() if now is None else now
        self.payload = np.asarray(payload)
        self.priority = Priority(priority)
        self.seq = int(seq)
        self.future = Future()
        self.t_submit = now
        self.deadline_ms = None if deadline_ms is None else float(deadline_ms)
        self.t_expiry = (
            None if deadline_ms is None else now + float(deadline_ms) / 1e3
        )
        #: set by admission control: the degrade-ladder tier this
        #: request executes on (a tier name from repro.serve.tiers), or
        #: None for full quality
        self.tier = None
        #: set by Server.submit when the request is sampled for tracing
        #: (a repro.trace trace id); None = untraced
        self.trace_id = None
        #: optional ground-truth label riding along with the sample —
        #: feedback for the streaming-adaptation tap (repro.adapt);
        #: never consulted on the serving path itself
        self.label = None if label is None else int(label)

    # ------------------------------------------------------------------
    def waited_ms(self, now=None) -> float:
        """Milliseconds spent since submission."""
        now = time.perf_counter() if now is None else now
        return (now - self.t_submit) * 1e3

    def expired(self, now=None) -> bool:
        """True when the deadline (if any) has passed."""
        if self.t_expiry is None:
            return False
        now = time.perf_counter() if now is None else now
        return now >= self.t_expiry

    # ------------------------------------------------------------------
    def resolve(self, row) -> bool:
        """Deliver the output row to the caller.

        Returns ``False`` instead of raising when the future no longer
        accepts a result — the caller cancelled it while it was queued,
        or it was already resolved — so one dead future cannot abort
        the resolve loop and strand its batchmates.
        """
        try:
            self.future.set_result(row)
        except InvalidStateError:
            return False
        return True

    def fail(self, exc) -> bool:
        """Deliver a (typed) failure; ``False`` if the future is done."""
        try:
            self.future.set_exception(exc)
        except InvalidStateError:
            return False
        return True

    def sort_key(self):
        """Heap key: higher priority first, FIFO within a class."""
        return (-int(self.priority), self.seq)

    def __repr__(self):
        return (
            f"Request(seq={self.seq}, priority={self.priority.name}, "
            f"deadline_ms={self.deadline_ms}, tier={self.tier})"
        )


__all__ = ["Priority", "Request"]
