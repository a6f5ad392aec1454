"""Hot weight swap: push trainer state into every pool replica.

:class:`WeightPublisher` owns the *publish* half of the adaptation
loop: given a ``state_dict`` snapshot from the shadow trainer it moves
every replica of a :class:`~repro.serve.ReplicaPool` to the new weight
generation **without pausing serving**:

* with a :class:`~repro.cluster.SharedWeightStore` the arrays are
  written in place and the single header bump
  (:meth:`SharedWeightStore.refresh`) moves every co-located replica —
  thread or forked — at once;
* plain thread replicas get an in-place
  :meth:`~repro.serve.Replica.load_weights` — the primary *and* every
  degrade-tier float model, which hold private copies without a store
  (packed plans hold ``.data`` by reference, so the write is the swap)
  — plus a :meth:`~repro.serve.Replica.refresh` to re-freeze tiers and
  tick ``weights_version``;
* :class:`~repro.cluster.RemoteReplica` slots ship the state over the
  wire via the worker's ``publish`` op — once per worker *address*
  (sibling slots observe the same host-side swap and only sync their
  parent-side version counters);
* local :class:`~repro.serve.ProcessReplica` children hold private
  forked weight copies and have no ``publish`` op — publishing to such
  a pool is a configuration error unless it was built with
  ``shared_weights=True``.

Requests in flight during a swap complete on whichever generation their
arrays read — never torn *versions* (the header moves only after all
arrays are written), and never a dropped or hung future.  The publisher
holds its own lock only around its counters, never while touching the
pool, the store or the wire — the whole-program lock graph stays
edge-free (CON002).
"""

from __future__ import annotations

import threading
import time


class PublishError(RuntimeError):
    """The pool cannot accept a hot weight swap (see module docstring)."""


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
        from ..serve.pool import ProcessReplica

        t0 = time.perf_counter()
        local, remote = [], []
        for replica in self.pool:  # pool iteration snapshots under its lock
            if callable(getattr(replica, "publish", None)):
                remote.append(replica)
            else:
                local.append(replica)

        store = self.pool.weight_store
        if store is None:
            bad = [r.name for r in local if isinstance(r, ProcessReplica)]
            if bad:
                raise PublishError(
                    f"pool has forked process replicas {bad} but no shared "
                    "weight store; build it with shared_weights=True to "
                    "hot-swap process-mode replicas"
                )
            for replica in local:
                # load_weights moves the primary *and* every tier's
                # float model (tiers hold private copies without a
                # store); refresh re-derives compiled/quantized plans
                replica.load_weights(state)
                replica.refresh()
        else:
            version = store.refresh(state)
            for replica in local:
                replica.refresh()
                replica.weights_version = version

        published = {}  # worker address -> version
        for replica in remote:
            address = getattr(replica, "address", None)
            if address is not None and address in published:
                # sibling slot of an already-published worker: the host
                # swap covered it, just sync the parent-side counter
                replica.weights_version = published[address]
            else:
                version = replica.publish(state)
                if address is not None:
                    # address-less publishables never dedupe — each one
                    # must receive the state itself
                    published[address] = version

        versions = [r.weights_version for r in (*local, *remote)]
        version = max(versions) if versions else None
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


__all__ = ["WeightPublisher", "PublishError"]
