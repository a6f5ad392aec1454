"""Per-session serving statistics: requests, batch sizes, latency.

``SessionStats`` is deliberately tiny and lock-protected so the
serving layer's executor threads can record into one shared instance;
:func:`repro.serve.metrics.snapshot` reads it through
:meth:`SessionStats.snapshot`.
"""

from __future__ import annotations

import threading
from collections import Counter, deque

import numpy as np


class SessionStats:
    """Counters and latency reservoir for one :class:`InferenceSession`.

    Records one entry per *dispatch* (a ``predict_batch`` call): the
    batch size and the wall-clock latency.  ``requests`` counts
    individual samples, so ``requests / batches`` is the mean achieved
    batching factor.  Latencies are kept in a bounded window (newest
    ``latency_window`` dispatches) so long-lived sessions stay O(1).
    There is no per-kernel breakdown here: wrap the calls of interest
    in :func:`repro.kernels.collect`, or read the ``kernel.*`` spans of
    a traced dispatch.
    """

    def __init__(self, latency_window=2048):
        self._lock = threading.Lock()
        self._window = int(latency_window)
        self._latencies_ms = deque(maxlen=self._window)
        self.requests = 0
        self.batches = 0
        self.batch_histogram = Counter()

    def __getstate__(self):
        # picklable snapshot (the cluster "stats" op ships one merged
        # SessionStats over the wire): everything but the lock travels
        with self._lock:
            state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def record(self, batch_size, latency_s) -> None:
        """Record one dispatched batch of *batch_size* samples."""
        with self._lock:
            self.requests += int(batch_size)
            self.batches += 1
            self.batch_histogram[int(batch_size)] += 1
            self._latencies_ms.append(float(latency_s) * 1e3)

    def latency_ms(self, percentile) -> float:
        """Latency percentile (ms) over the retained window; NaN if empty.

        Any percentile works (``latency_ms(99)`` is the tail-latency
        surface the serving layer alarms on); :meth:`snapshot` exposes
        the conventional p50/p95/p99 triple.
        """
        with self._lock:
            lats = list(self._latencies_ms)
        if not lats:
            return float("nan")
        return float(np.percentile(np.asarray(lats), percentile))

    def merge(self, other: "SessionStats") -> None:
        """Fold *other*'s counters and latency window into this instance.

        This is how :class:`repro.serve.ReplicaPool` aggregates its
        replicas' statistics without reaching into private deques.  The
        donor is read under its own lock (a consistent copy), then
        merged under ours — the two acquisitions never nest the other
        way around, so cross-merging two instances cannot deadlock.
        *other* is left untouched.
        """
        with other._lock:
            requests = other.requests
            batches = other.batches
            histogram = Counter(other.batch_histogram)
            latencies = list(other._latencies_ms)
        with self._lock:
            self.requests += requests
            self.batches += batches
            self.batch_histogram.update(histogram)
            self._latencies_ms.extend(latencies)

    def snapshot(self) -> dict:
        """A plain-dict view: requests, batches, histogram and p50/p95/p99
        latency (ms)."""
        with self._lock:
            lats = np.asarray(self._latencies_ms, dtype=float)
            out = {
                "requests": self.requests,
                "batches": self.batches,
                "batch_histogram": dict(sorted(self.batch_histogram.items())),
            }
        for pct in (50, 95, 99):
            out[f"p{pct}_ms"] = (
                float(np.percentile(lats, pct)) if lats.size else float("nan")
            )
        return out

    def reset(self) -> None:
        """Zero all counters (e.g. after a warmup phase)."""
        with self._lock:
            self.requests = 0
            self.batches = 0
            self.batch_histogram.clear()
            self._latencies_ms.clear()
