"""The tracer core: :class:`Tracer`, :class:`Span` and the ambient
thread-local context that lets spans nest across call layers without
any layer threading a tracer argument through.

Design constraints, in order:

1. **Zero cost when off.**  Every traced seam (session dispatch, ODE
   solver step loop, kernel dispatch) guards with one thread-local read
   (:func:`current_tracer` returning ``None``) and takes the exact
   pre-trace code path.  Nothing allocates, nothing is timed.
2. **Monotonic clocks only.**  All timestamps are
   ``time.perf_counter()`` — comparable across threads, and (on Linux,
   where ``perf_counter`` is ``CLOCK_MONOTONIC``) across forked
   ``ProcessReplica`` workers, which is what lets worker-side spans
   slot into the parent's timeline.  Wall-clock ``time.time()`` is
   banned from traced paths by lint rule ``TRC001``.
3. **Bounded memory.**  Completed spans land in a ring buffer
   (``capacity`` newest spans); overflow increments ``dropped`` instead
   of growing without bound — same discipline as
   :class:`repro.runtime.SessionStats`'s latency window.
4. **Cheap sampling.**  :meth:`Tracer.new_trace` hands out a trace id
   to every ``sample_every``-th request and ``None`` to the rest; an
   unsampled request takes the untraced path end to end.

Span nesting is per-thread: ``tracer.span(...)`` pushes onto a
thread-local stack and records the previous top as its parent, so the
serving chain batch → dispatch → session → solver.step → kernel links
up naturally on the executor thread that runs it.  Cross-process spans
(forked and remote replicas) come back with the reply frame over the
replica's :class:`repro.cluster.WorkerClient` channel and are
re-parented with :meth:`Tracer.ingest`.
"""

from __future__ import annotations

import itertools
import threading
import time


class Span:
    """One completed span: a named, timed segment of work.

    ``t0`` and ``dur`` are in seconds on the ``perf_counter`` clock;
    ``trace_ids`` are the per-request ids this span served (empty for
    purely internal spans); ``attrs`` is a small free-form dict of
    structured attributes (replica name, batch size, solver step, ...).
    """

    __slots__ = (
        "span_id", "parent_id", "name", "t0", "dur", "thread",
        "trace_ids", "attrs",
    )

    def __init__(self, span_id, parent_id, name, t0, dur, thread,
                 trace_ids=(), attrs=None):
        self.span_id = int(span_id)
        self.parent_id = None if parent_id is None else int(parent_id)
        self.name = str(name)
        self.t0 = float(t0)
        self.dur = float(dur)
        self.thread = str(thread)
        self.trace_ids = tuple(trace_ids)
        self.attrs = dict(attrs) if attrs else {}

    @property
    def t1(self) -> float:
        """End timestamp (``t0 + dur``)."""
        return self.t0 + self.dur

    def to_dict(self) -> dict:
        """Plain-dict view (JSON-friendly)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "t0": self.t0,
            "dur": self.dur,
            "thread": self.thread,
            "trace_ids": list(self.trace_ids),
            "attrs": dict(self.attrs),
        }

    # pickling support for reply frames on the replica transport
    # (slots-only class)
    def __getstate__(self):
        return (self.span_id, self.parent_id, self.name, self.t0,
                self.dur, self.thread, self.trace_ids, self.attrs)

    def __setstate__(self, state):
        (self.span_id, self.parent_id, self.name, self.t0,
         self.dur, self.thread, self.trace_ids, self.attrs) = state

    def __repr__(self):
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"parent={self.parent_id}, dur_ms={self.dur * 1e3:.3f}, "
            f"trace_ids={self.trace_ids})"
        )


class _Local(threading.local):
    """Per-thread ambient state: the active tracer and the open-span
    stack (span ids, innermost last)."""

    def __init__(self):
        self.tracer = None
        self.stack = []


_LOCAL = _Local()


def current_tracer():
    """The tracer active on the calling thread, or ``None``.

    This is the one check every traced seam performs; when it returns
    ``None`` (the default on every thread) the caller must take its
    untraced fast path.
    """
    return _LOCAL.tracer


def current_span_id():
    """Id of the innermost open span on this thread, or ``None``."""
    stack = _LOCAL.stack
    return stack[-1] if stack else None


class _SpanCtx:
    """Context manager for one open span; created by :meth:`Tracer.span`.

    Entering records the start time, allocates the span id and pushes it
    on the thread's stack (also making the owning tracer ambient, so
    downstream seams see it); exiting pops, restores the previous
    ambient tracer and appends the completed :class:`Span` to the ring
    buffer.  :meth:`set` adds attributes mid-flight (e.g. a solver step
    marking whether it was accepted).
    """

    __slots__ = ("_tracer", "name", "trace_ids", "attrs", "span_id",
                 "parent_id", "_t0", "_prev_tracer")

    def __init__(self, tracer, name, trace_ids, attrs):
        self._tracer = tracer
        self.name = name
        self.trace_ids = trace_ids
        self.attrs = attrs
        self.span_id = None
        self.parent_id = None

    def set(self, **attrs):
        """Attach more attributes to the span before it closes."""
        self.attrs.update(attrs)
        return self

    def __enter__(self):
        local = _LOCAL
        self._prev_tracer = local.tracer
        local.tracer = self._tracer
        self.parent_id = local.stack[-1] if local.stack else None
        self.span_id = next(self._tracer._ids)
        local.stack.append(self.span_id)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        t1 = time.perf_counter()
        local = _LOCAL
        local.stack.pop()
        local.tracer = self._prev_tracer
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._append(Span(
            self.span_id, self.parent_id, self.name, self._t0,
            t1 - self._t0, threading.current_thread().name,
            self.trace_ids, self.attrs,
        ))
        return False


class _ActivateCtx:
    """Make a tracer ambient on this thread without opening a span.

    Used by replica workers (:class:`repro.cluster.ClusterWorker`'s
    ``run`` op, in a forked child or on a worker host): the worker
    activates its private tracer around the batch so the
    session/solver/kernel seams trace into it, then ships the collected
    spans back with the reply.  With *parent_id* — a span open on
    another thread — the spans opened here nest under it.
    """

    __slots__ = ("_tracer", "_parent_id", "_prev_tracer", "_prev_stack")

    def __init__(self, tracer, parent_id=None):
        self._tracer = tracer
        self._parent_id = parent_id

    def __enter__(self):
        local = _LOCAL
        self._prev_tracer = local.tracer
        self._prev_stack = local.stack
        local.tracer = self._tracer
        local.stack = [] if self._parent_id is None else [self._parent_id]
        return self._tracer

    def __exit__(self, *exc):
        local = _LOCAL
        local.tracer = self._prev_tracer
        local.stack = self._prev_stack
        return False


class Tracer:
    """Thread-safe structured tracer with bounded retention.

    Parameters
    ----------
    capacity:
        ring-buffer size; the newest *capacity* completed spans are
        retained, older ones are dropped (counted in ``dropped``).
    sample_every:
        :meth:`new_trace` hands out a trace id to every N-th call and
        ``None`` to the rest — deterministic 1-in-N request sampling
        (``1`` = trace every request).
    kernel_spans:
        when ``True`` (default) traced sessions also record one span
        per kernel dispatch via the :mod:`repro.kernels`
        instrumentation seam; turn off to cut span volume on
        kernel-heavy models.
    """

    def __init__(self, capacity=65536, sample_every=1, kernel_spans=True):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if sample_every < 1:
            raise ValueError(
                f"sample_every must be >= 1, got {sample_every}"
            )
        self.capacity = int(capacity)
        self.sample_every = int(sample_every)
        self.kernel_spans = bool(kernel_spans)
        self.dropped = 0
        self.completed = 0
        self._lock = threading.Lock()
        self._spans = []          # ring buffer, head at _head
        self._head = 0
        # itertools.count.__next__ is atomic under the GIL — id
        # allocation needs no lock even from many threads at once
        self._ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        self._submits = itertools.count()

    # ------------------------------------------------------------------
    def new_trace(self):
        """Sampling decision: a fresh trace id, or ``None`` (unsampled).

        Every ``sample_every``-th call (starting with the first) gets an
        id; callers must propagate ``None`` as "tracing off for this
        request" and skip all span work for it.
        """
        if next(self._submits) % self.sample_every:
            return None
        return next(self._trace_ids)

    def span(self, name, *, trace_ids=(), **attrs):
        """Open a nested span: ``with tracer.span("dispatch", n=8): ...``

        The span's parent is the innermost span already open on the
        calling thread; while the context is active this tracer is the
        thread's ambient tracer (:func:`current_tracer`), which is how
        downstream seams (session → solver → kernels) join the trace
        without explicit plumbing.
        """
        return _SpanCtx(self, name, tuple(trace_ids), attrs)

    def add_span(self, name, t0, t1, *, trace_ids=(), parent_id=None,
                 **attrs):
        """Record a retroactive span from explicit timestamps.

        For segments whose boundaries were observed without an open
        context — e.g. the admission span (request submit → dispatch)
        is emitted by the scheduler when the batch executes, from the
        request's recorded submit time.  Returns the new span id.
        """
        span_id = next(self._ids)
        self._append(Span(
            span_id, parent_id, name, float(t0), float(t1) - float(t0),
            threading.current_thread().name, tuple(trace_ids), attrs,
        ))
        return span_id

    def activate(self):
        """Context manager making this tracer ambient with no open span
        (fresh span stack) — the forked-worker entry point."""
        return _ActivateCtx(self)

    def activate_under(self, parent_id):
        """Context manager making this tracer ambient with *parent_id*,
        a span open on another thread, as the parent of every span
        opened here — how work that a traced thread hands to a helper
        thread (a split :class:`~repro.compile.CompiledPlan` batch)
        nests under the span that handed it off."""
        return _ActivateCtx(self, parent_id)

    # ------------------------------------------------------------------
    def _append(self, span):
        with self._lock:
            if len(self._spans) < self.capacity:
                self._spans.append(span)
            else:
                self._spans[self._head] = span
                self._head = (self._head + 1) % self.capacity
                self.dropped += 1
            self.completed += 1

    def spans(self) -> list:
        """Snapshot of retained spans, oldest first."""
        with self._lock:
            return self._spans[self._head:] + self._spans[:self._head]

    def clear(self) -> None:
        """Drop all retained spans and zero the drop/complete counters."""
        with self._lock:
            self._spans = []
            self._head = 0
            self.dropped = 0
            self.completed = 0

    # ------------------------------------------------------------------
    def ingest(self, spans, parent_id=None):
        """Merge spans recorded by another tracer (usually another
        process) under this one.

        Span ids are remapped to fresh local ids so they cannot collide
        with ours; internal parent links are preserved, and any root
        (parentless) span is attached to *parent_id* — defaulting to
        the calling thread's innermost open span, which is exactly the
        ``dispatch`` span when a :class:`~repro.serve.ProcessReplica` or
        :class:`~repro.cluster.RemoteReplica` ingests its worker's
        reply.
        """
        if parent_id is None:
            parent_id = current_span_id()
        remap = {span.span_id: next(self._ids) for span in spans}
        for span in spans:
            new_parent = (
                remap.get(span.parent_id, parent_id)
                if span.parent_id is not None else parent_id
            )
            self._append(Span(
                remap[span.span_id], new_parent, span.name, span.t0,
                span.dur, span.thread, span.trace_ids, span.attrs,
            ))
        return len(spans)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Counter summary (span totals + per-stage latency), the shape
        :func:`repro.serve.metrics.snapshot` merges into its report."""
        from .analysis import stage_latency

        spans = self.spans()
        return {
            "completed": self.completed,
            "retained": len(spans),
            "dropped": self.dropped,
            "capacity": self.capacity,
            "sample_every": self.sample_every,
            "requests": sum(1 for s in spans if s.name == "request"),
            "stages": stage_latency(spans),
        }

    def __repr__(self):
        return (
            f"Tracer(completed={self.completed}, dropped={self.dropped}, "
            f"capacity={self.capacity}, sample_every={self.sample_every})"
        )


class KernelSpanCollector:
    """Adapter from the :mod:`repro.kernels` instrumentation seam to
    trace spans.

    :func:`repro.kernels.collect` accepts any object with a
    ``record(name, seconds, nbytes)`` method; this one turns each kernel
    dispatch into a ``kernel.<name>`` span parented under whatever span
    is innermost when the dispatch returns (a solver step inside the ODE
    loop, the session span outside it).  Costs nothing when tracing is
    off because it is only armed inside a traced session dispatch.
    """

    __slots__ = ("_tracer",)

    def __init__(self, tracer):
        self._tracer = tracer

    def record(self, name, seconds, nbytes):
        """Record one kernel dispatch as a completed span."""
        t1 = time.perf_counter()
        self._tracer.add_span(
            f"kernel.{name}", t1 - seconds, t1,
            parent_id=current_span_id(), bytes=int(nbytes),
        )


__all__ = [
    "Span",
    "Tracer",
    "KernelSpanCollector",
    "current_tracer",
    "current_span_id",
]
