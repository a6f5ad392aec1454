"""Hot weight swap: push trainer state into every pool replica.

:class:`WeightPublisher` owns the *publish* half of the adaptation
loop: given a ``state_dict`` snapshot from the shadow trainer it moves
every replica of a :class:`~repro.serve.ReplicaPool` to the new weight
generation **without pausing serving**.  The move itself is
:meth:`ReplicaPool.publish <repro.serve.ReplicaPool.publish>`, the one
way a generation enters a pool, and it takes two paths:

* every replica on this host reads the pool's
  :class:`~repro.cluster.SharedWeightStore` — thread replicas, forked
  process replicas and every degrade-tier float model alike — so the
  arrays are written into the store once, its version header is bumped
  once, and each replica's ``refresh()`` rebinds its plans (a compiled
  plan holds its own lowered arrays, and quantized tiers re-derive
  their integer weights) and takes the store's ``weights_version``;
* :class:`~repro.cluster.RemoteReplica` slots ship the state over the
  wire via the worker's ``publish`` op — once per worker *address*
  (sibling slots observe the same host-side swap and only sync their
  parent-side version counters).

The publisher adds the timing, the ``weights.swap`` trace span and the
swap counters.  Requests in flight during a swap complete on whichever
generation their arrays read — never torn *versions* (the header moves
only after all arrays are written), and never a dropped or hung future.
The publisher holds its own lock only around its counters, never while
touching the pool, the store or the wire — the whole-program lock
graph stays edge-free (CON002).
"""

from __future__ import annotations

import threading
import time


class WeightPublisher:
    """Publishes weight generations into *pool*; see the module docs.

    Parameters
    ----------
    pool:
        the :class:`~repro.serve.ReplicaPool` being served from.
    tracer:
        optional :class:`repro.trace.Tracer`; every swap records a
        retroactive ``weights.swap`` span with the new version.
    """

    def __init__(self, pool, tracer=None):
        self.pool = pool
        self.tracer = tracer
        self._lock = threading.Lock()
        self.swaps = 0               # protected by _lock
        self.last_version = None     # protected by _lock
        self.last_pause_ms = None    # protected by _lock
        self.max_pause_ms = 0.0      # protected by _lock

    def publish(self, state) -> dict:
        """Move every replica to *state*; returns the swap record.

        The returned dict has ``version`` (the highest version any
        replica now reports), ``pause_ms`` (wall time of the swap —
        the bound on the window in which replicas may mix adjacent
        generations) and ``replicas`` (how many were moved).
        """
        t0 = time.perf_counter()
        versions = self.pool.publish(state)
        version = max(versions)
        t1 = time.perf_counter()
        pause_ms = (t1 - t0) * 1e3
        if self.tracer is not None:
            self.tracer.add_span(
                "weights.swap", t0, t1,
                version=version, replicas=len(versions),
            )
        with self._lock:
            self.swaps += 1
            self.last_version = version
            self.last_pause_ms = pause_ms
            self.max_pause_ms = max(self.max_pause_ms, pause_ms)
        return {
            "version": version,
            "pause_ms": pause_ms,
            "replicas": len(versions),
        }

    def snapshot(self) -> dict:
        """Swap counters for the metrics report."""
        with self._lock:
            return {
                "swaps": self.swaps,
                "last_version": self.last_version,
                "last_pause_ms": self.last_pause_ms,
                "max_pause_ms": self.max_pause_ms,
            }


__all__ = ["WeightPublisher"]
