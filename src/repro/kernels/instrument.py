"""Per-kernel instrumentation: call counts, wall seconds, bytes moved.

Collection is opt-in and stack-based: ``with collect() as counters:``
pushes a :class:`KernelCounters` onto a per-thread stack; every kernel
dispatched while the stack is non-empty records into *all* active
collectors (so a session-level collector and an ad-hoc profiling
collector can nest).  When the stack is empty — the common case — the
dispatch layer skips timing entirely, keeping overhead to one truthiness
check per call.

``repro.profiling`` re-exports :func:`collect` as ``collect_kernels``
and :class:`repro.runtime.SessionStats` merges snapshots per dispatch.
"""

from __future__ import annotations

import contextlib
import threading
import time

import numpy as np


class KernelCounters:
    """Accumulated per-kernel statistics: calls, seconds, bytes.

    ``bytes`` counts array traffic (inputs read + outputs written), the
    quantity a bandwidth-bound accelerator design cares about.  A split
    :class:`~repro.compile.CompiledPlan` batch records into one counter
    from two threads at once, so every read-modify-write holds
    ``_lock``, a leaf: nothing else is taken under it.
    """

    __slots__ = ("calls", "seconds", "bytes", "_lock")

    def __init__(self):
        self.calls: dict = {}
        self.seconds: dict = {}
        self.bytes: dict = {}
        self._lock = threading.Lock()

    def record(self, name: str, seconds: float, nbytes: int) -> None:
        with self._lock:
            self.calls[name] = self.calls.get(name, 0) + 1
            self.seconds[name] = self.seconds.get(name, 0.0) + seconds
            self.bytes[name] = self.bytes.get(name, 0) + nbytes

    def total_seconds(self) -> float:
        with self._lock:
            return sum(self.seconds.values())

    def snapshot(self) -> dict:
        """``{kernel: {"calls", "seconds", "bytes"}}``, sorted by time."""
        with self._lock:
            return {
                name: {
                    "calls": self.calls[name],
                    "seconds": self.seconds[name],
                    "bytes": self.bytes[name],
                }
                for name in sorted(self.seconds, key=self.seconds.get,
                                   reverse=True)
            }


class _Stack(threading.local):
    def __init__(self):
        self.collectors = []


_stack = _Stack()


def active_collectors() -> list:
    """The calling thread's active collectors (may be empty)."""
    return _stack.collectors


@contextlib.contextmanager
def collect(counters: KernelCounters | None = None):
    """Collect per-kernel statistics for the duration of the block."""
    counters = counters if counters is not None else KernelCounters()
    _stack.collectors.append(counters)
    try:
        yield counters
    finally:
        _stack.collectors.remove(counters)


def _nbytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, tuple):
        return sum(_nbytes(v) for v in value)
    return 0


def record_dispatch(name, impl, args, kwargs):
    """Run *impl* under the active collectors' clocks."""
    t0 = time.perf_counter()
    out = impl(*args, **kwargs)
    dt = time.perf_counter() - t0
    nbytes = _nbytes(out) + sum(_nbytes(a) for a in args)
    for counters in _stack.collectors:
        counters.record(name, dt, nbytes)
    return out
