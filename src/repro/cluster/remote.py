"""A :class:`~repro.serve.Replica` whose sessions live across TCP.

:class:`RemoteReplica` is the cluster sibling of
:class:`~repro.serve.ProcessReplica`: both are
:class:`~repro.serve.pool.ChannelReplica` objects, so they share one
``run`` round trip, one health and tier accounting, and one trace-span
return, and drop into an existing :class:`~repro.serve.ReplicaPool`
unchanged — the scheduler cannot tell (and must not care) whether a
lease crosses a socketpair or a network.  Each instance owns one
:class:`~repro.cluster.WorkerClient` TCP connection, and the worker
advertises how many local replicas it hosts; :func:`connect_worker`
opens that many connections and returns one :class:`RemoteReplica` per
slot, so the pool's least-outstanding routing and the scheduler's
per-replica executors keep their meaning (one in-flight round trip per
connection, parallelism = number of slots).

Health accounting is parent-side and typed: ``PeerGone`` / ``OSError``
(worker died) and ``TimeoutError`` (deadline passed; connection
survives via sequence-id discard) count toward ``unhealthy_after``.
"""

from __future__ import annotations

import time

from ..runtime import SessionStats
from ..serve.pool import ChannelReplica
from .transport import DEFAULT_TIMEOUT_S, WorkerClient, round_trip_timeout
from .wire import format_address, parse_address


class RemoteReplica(ChannelReplica):
    """One replica slot on a remote cluster worker.

    Parameters
    ----------
    address:
        ``(host, port)`` or ``"host:port"`` of a running
        :mod:`repro.cluster.worker`.
    name:
        stable identifier; defaults to ``"host:port/r<slot>"``.
    slot:
        which of the worker's local replica slots this connection
        notionally occupies (labelling only — the worker routes every
        request through its own least-outstanding pool).
    timeout_s:
        per-round-trip deadline, finite (see
        :func:`~repro.cluster.transport.round_trip_timeout`).
    unhealthy_after:
        consecutive failures before routing skips this replica.
    client:
        an already-connected :class:`WorkerClient` to take ownership
        of (used by :func:`connect_worker` to avoid a second hello).
    """

    def __init__(self, address, *, name=None, slot=0,
                 timeout_s=DEFAULT_TIMEOUT_S, unhealthy_after=3,
                 connect_timeout_s=10.0, client=None):
        timeout_s = round_trip_timeout(timeout_s)
        host, port = (
            parse_address(address) if isinstance(address, str) else address
        )
        if client is None:
            client = WorkerClient.connect(
                (host, port), timeout_s=timeout_s,
                connect_timeout_s=connect_timeout_s,
            )
        info = client.info
        where = format_address((host, int(port)))
        if name is None:
            name = f"{where}/r{int(slot)}"
        # session-less by construction: the sessions live on the worker
        tiers = {str(t): None for t in info.get("tiers", ())}
        super().__init__(name, None, tiers, unhealthy_after, client,
                         timeout_s)
        #: the worker's ``host:port``
        self.address = where
        self.slot = int(slot)
        #: the worker's hello self-description (model, profile, tiers,
        #: replica count, shared weight store header, pid)
        self.info = dict(info)
        self.weights_version = int(info.get("weights_version", 1))

    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Parent-side health — lock-free and socket-free by contract.

        :meth:`ReplicaPool.health` calls this under the pool lock, so
        it must never block on the wire; use :meth:`remote_health` for
        the worker's own view.
        """
        report = super().health()
        report["remote"] = True
        report["address"] = self.address
        report["slot"] = self.slot
        return report

    def remote_health(self) -> dict:
        """The worker's own health report (one socket round trip)."""
        return self._client.request("health", timeout_s=self.timeout_s)

    def remote_stats(self) -> SessionStats:
        """The worker's merged session statistics (one round trip)."""
        return self._client.request("stats", timeout_s=self.timeout_s)

    def ping(self) -> float:
        """Round-trip liveness probe; returns the RTT in seconds."""
        start = time.perf_counter()
        self._client.request("ping", timeout_s=self.timeout_s)
        return time.perf_counter() - start

    def publish(self, state) -> int:
        """Push a new weight generation to the worker hosting this slot.

        Ships the full ``state_dict`` over the wire; the worker writes
        it into its host-local weight set (shared store, or per-replica
        load for a thread-mode worker) and reports the new version
        back.  One publish per *worker* suffices — sibling slots of the
        same worker observe the same host-side swap, so a publisher
        should dedupe by :attr:`address` (see
        :class:`repro.adapt.WeightPublisher`).
        """
        self.weights_version = int(
            self._client.request(
                "publish", {"state": state}, timeout_s=self.timeout_s
            )
        )
        return self.weights_version


def connect_worker(address, *, timeout_s=DEFAULT_TIMEOUT_S,
                   unhealthy_after=3, connect_timeout_s=10.0, slots=None,
                   name_prefix=None):
    """Open one :class:`RemoteReplica` per replica slot of a worker.

    The first connection's hello frame advertises how many local
    replicas the worker hosts; that many connections are opened (cap
    with ``slots=``) so the parent pool gets the worker's full
    parallelism.  Returns a list of connected replicas.
    """
    if isinstance(address, str):
        address = parse_address(address)
    first = WorkerClient.connect(
        address, timeout_s=timeout_s, connect_timeout_s=connect_timeout_s
    )
    advertised = max(1, int(first.info.get("replicas", 1)))
    count = advertised if slots is None else max(1, min(int(slots),
                                                        advertised))
    prefix = name_prefix or format_address(address)
    replicas = []
    try:
        for slot in range(count):
            client = first if slot == 0 else WorkerClient.connect(
                address, timeout_s=timeout_s,
                connect_timeout_s=connect_timeout_s,
            )
            replicas.append(
                RemoteReplica(
                    address, name=f"{prefix}/r{slot}", slot=slot,
                    timeout_s=timeout_s, unhealthy_after=unhealthy_after,
                    client=client,
                )
            )
    except Exception:
        for replica in replicas:
            replica.close()
        if not replicas:  # first connection never became a replica
            first.close()
        raise
    return replicas


__all__ = ["RemoteReplica", "connect_worker"]
