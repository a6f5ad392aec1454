"""Replica management: N inference sessions behind one dispatch point.

A :class:`Replica` owns one :class:`~repro.runtime.InferenceSession`
plus, optionally, a set of *tier sessions* — one per rung of the
degrade ladder (see :mod:`repro.serve.tiers`): the reduced-ODE-step
profile, and the ``int8`` / ``int4`` fixed-point plans built from the
same weight set.  It tracks its own health: consecutive failures past
a threshold mark it unhealthy and routing skips it until
:meth:`ReplicaPool.revive`.

A pool built with :meth:`ReplicaPool.build` lays its weights into one
:class:`repro.cluster.SharedWeightStore`, and every replica's primary
and tier float models read that one mapped set.  The quantized tiers
derive their integer weights when the tier session compiles its
fixed-point plan, and again on :meth:`Replica.refresh`, which rebinds
every session; the replica's ``weights_version`` counter ticks there —
so metrics can confirm all tiers of a replica serve the same weight
generation.  :meth:`ReplicaPool.publish` is the one way a new
generation enters a pool.

The :class:`ReplicaPool` routes by **least outstanding work**: every
dispatch leases the healthy replica with the fewest in-flight batches,
so a replica stuck on a slow batch (or a slower backend — replicas may
mix ``reference`` and ``fused`` kernels) naturally receives less
traffic.  The leases are also the only bound on in-flight work: no
healthy replica holds more than :data:`INFLIGHT_PER_REPLICA`, and the
scheduler waits for room (:meth:`ReplicaPool.wait_for_room`) before it
pops a batch, so any backlog beyond that stays in the admission queue.

Two execution modes:

``thread`` (default)
    replicas run in the scheduler's worker threads of this process —
    zero-copy, deterministic, and bit-exact with a direct
    ``InferenceSession.predict_batch``.
``process``
    each replica forks a child hosting its sessions and serves batches
    over one end of a ``socket.socketpair()`` — the
    :mod:`repro.cluster` wire and handler, without the TCP listener.
    Forked children sidestep the GIL, so on a multi-core machine N
    replicas genuinely scale; results remain bit-exact (same numpy
    code, same weights).  Requires a platform with ``fork`` (Linux);
    construct the pool *before* starting any scheduler threads.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np

from ..models import build_model
from ..runtime import InferenceSession, SessionConfig, SessionStats
from .errors import ReplicaUnavailable
from .tiers import resolve_ladder

#: the most batches one healthy replica may have in flight: one running
#: and one waiting in its executor, so the replica never idles while its
#: next batch forms
INFLIGHT_PER_REPLICA = 2


class Replica:
    """One managed inference session plus its degrade-tier sessions.

    Parameters
    ----------
    name:
        stable identifier used in health/metrics reports.
    session:
        the full-quality :class:`~repro.runtime.InferenceSession`.
    tier_sessions:
        mapping of degrade-ladder tier name to that tier's session
        (all sharing the primary's weight set).
    unhealthy_after:
        consecutive failures before the replica is taken out of
        routing.
    """

    def __init__(self, name, session, tier_sessions=None,
                 unhealthy_after=3):
        self.name = str(name)
        self.session = session
        self.tier_sessions = dict(tier_sessions or {})
        self.unhealthy_after = int(unhealthy_after)
        self.outstanding = 0
        self.consecutive_failures = 0
        self.healthy = True
        self.dispatches = 0
        self.degraded_dispatches = 0
        self.dispatches_by_tier = {name: 0 for name in self.tier_sessions}
        #: weight generation every session of this replica serves;
        #: ticks on :meth:`refresh`
        self.weights_version = 1

    # ------------------------------------------------------------------
    @property
    def stats(self) -> SessionStats:
        """The replica's serving statistics."""
        return self.session.stats

    def executed_tier(self, tier):
        """The tier this replica runs a batch admitted at *tier* on:
        *tier* itself when the replica has its session, else ``None``
        (full quality; a less-degraded answer is always acceptable)."""
        return tier if tier in self.tier_sessions else None

    def run(self, samples, tier=None) -> np.ndarray:
        """Execute one batch on *tier*, with health and tier accounting.

        The batch runs, and is counted, on :meth:`executed_tier`.
        """
        used = self.executed_tier(tier)
        try:
            out = self._execute(samples, used)
        except Exception:
            self.consecutive_failures += 1
            if self.consecutive_failures >= self.unhealthy_after:
                self.healthy = False
            raise
        self.consecutive_failures = 0
        self.dispatches += 1
        if used is not None:
            self.degraded_dispatches += 1
            self.dispatches_by_tier[used] += 1
        return out

    def _execute(self, samples, tier):
        """Run one batch on *tier*'s session (``None``: full quality)."""
        session = self.session if tier is None else self.tier_sessions[tier]
        return session.predict_batch(samples)

    def refresh(self) -> None:
        """Re-freeze every session (primary and all tiers) after a
        weight mutation; bumps :attr:`weights_version` so metrics show
        all tiers moved to the new generation together."""
        self.session.refresh()
        for session in self.tier_sessions.values():
            session.refresh()
        self.weights_version += 1

    def close(self) -> None:
        """Release replica resources (no-op for in-process replicas)."""

    def health(self) -> dict:
        """Health and routing state as a plain dict."""
        return {
            "healthy": self.healthy,
            "outstanding": self.outstanding,
            "consecutive_failures": self.consecutive_failures,
            "dispatches": self.dispatches,
            "degraded_dispatches": self.degraded_dispatches,
            "dispatches_by_tier": dict(self.dispatches_by_tier),
            "tiers": list(self.tier_sessions),
            "weights_version": self.weights_version,
        }

    def __repr__(self):
        return (
            f"{type(self).__name__}({self.name!r}, healthy={self.healthy}, "
            f"outstanding={self.outstanding})"
        )


class ChannelReplica(Replica):
    """A replica whose sessions run in another process.

    Every batch is one ``run`` round trip over a
    :class:`repro.cluster.WorkerClient` channel to a
    :class:`repro.cluster.ClusterWorker` connection handler: a forked
    child for :class:`ProcessReplica`, a worker host for
    :class:`repro.cluster.RemoteReplica`.  Tier routing is decided here,
    parent-side, against the tier names in :attr:`tier_sessions`; the
    worker executes it on its own sessions.  Statistics are parent-side
    round-trip latency — the latency the serving layer actually
    delivers.  When the dispatch is traced, the worker runs the batch
    under a private :class:`repro.trace.Tracer` and ships its spans
    back; they re-parent under the ambient ``dispatch`` span
    (``perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, so timestamps
    line up across processes on one host).

    A dead worker surfaces as :class:`~repro.cluster.PeerGone`, a
    wedged one as ``TimeoutError`` after :attr:`timeout_s`; both count
    against health like any other dispatch failure.
    """

    def __init__(self, name, session, tier_sessions, unhealthy_after,
                 client, timeout_s):
        super().__init__(name, session, tier_sessions,
                         unhealthy_after=unhealthy_after)
        self._client = client
        #: per-round-trip deadline in seconds
        self.timeout_s = timeout_s
        self._stats = SessionStats()

    @property
    def stats(self) -> SessionStats:
        """Parent-side statistics (round-trip serving latency)."""
        return self._stats

    def _execute(self, samples, tier):
        from ..trace import current_tracer

        samples = np.asarray(samples)
        tracer = current_tracer()
        start = time.perf_counter()
        out, spans = self._client.request(
            "run",
            {"tier": tier, "samples": samples,
             "want_trace": tracer is not None},
            timeout_s=self.timeout_s,
        )
        if tracer is not None and spans:
            # worker spans attach under the ambient dispatch span
            tracer.ingest(spans)
        self._stats.record(samples.shape[0], time.perf_counter() - start)
        return out

    def refresh(self) -> None:
        """Have the worker re-freeze its sessions (all tiers); adopts
        the ``weights_version`` it reports back."""
        self.weights_version = int(
            self._client.request("refresh", timeout_s=self.timeout_s)
        )

    def close(self) -> None:
        """Close the channel; the worker sees EOF."""
        self._client.close()


# repro.cluster subclasses Replica and ChannelReplica, so its import
# has to wait until both exist
from ..cluster.transport import (  # noqa: E402
    DEFAULT_TIMEOUT_S,
    WorkerClient,
    round_trip_timeout,
)


class ProcessReplica(ChannelReplica):
    """A replica whose sessions live in a forked child process.

    The child wraps the sessions in a one-replica pool and serves it
    with :meth:`repro.cluster.ClusterWorker.serve_connection` on one
    end of a ``socket.socketpair()``; this parent talks to it through a
    :class:`repro.cluster.WorkerClient` on the other end — the cluster
    transport's frames, hello check, sequence echo, typed failures and
    trace-span return, without a listener.  The child holds the same
    tier-session mapping the parent built before forking, so tier
    routing is decided parent-side and executed child-side on identical
    objects.  The sequence echo is what keeps the channel usable after
    a timeout: the child's late reply is discarded by the next round
    trip, never handed to its callers.

    The child's float weights are the pool's
    :class:`repro.cluster.SharedWeightStore`, mapped before the fork, so
    a store write reaches them with no message; :meth:`refresh` then has
    the child rebind its plans, quantized tiers included.  There is no
    ``publish`` op to a child.
    """

    def __init__(self, name, session, tier_sessions=None,
                 unhealthy_after=3, timeout_s=DEFAULT_TIMEOUT_S):
        import multiprocessing as mp
        import socket

        if "fork" not in mp.get_all_start_methods():
            raise ValueError(
                "process-mode replicas need a fork platform (Linux); "
                "use mode='thread' here"
            )
        timeout_s = round_trip_timeout(timeout_s)
        parent_end, child_end = socket.socketpair()
        self._proc = mp.get_context("fork").Process(
            target=ProcessReplica._serve,
            args=(parent_end, child_end, name, session, tier_sessions),
            name=f"repro-serve-{name}",
            daemon=True,
        )
        self._proc.start()
        child_end.close()
        try:
            client = WorkerClient(parent_end, timeout_s=timeout_s)
        except BaseException:
            self._proc.kill()
            self._proc.join(timeout=5)
            raise
        super().__init__(name, session, tier_sessions, unhealthy_after,
                         client, timeout_s)

    @staticmethod
    def _serve(parent_end, conn, name, session, tier_sessions):
        """Child: answer the parent over *conn* until it closes."""
        from ..cluster.worker import ClusterWorker

        parent_end.close()
        # health is accounted parent-side: the child's one replica
        # must never leave its pool's routing
        replica = Replica(name, session, tier_sessions,
                          unhealthy_after=sys.maxsize)
        ClusterWorker(ReplicaPool([replica])).serve_connection(conn)

    def close(self) -> None:
        """Close the channel and join the child."""
        super().close()
        self._proc.join(timeout=5)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(timeout=5)


class ReplicaPool:
    """Owns N replicas; leases them out least-outstanding-work first.

    Use :meth:`build` to construct a pool straight from the model
    registry, or pass pre-built :class:`Replica` objects (mixed kernel
    backends are fine — routing automatically biases toward the faster
    ones because they finish, and therefore release, leases sooner).

    The leases also bound the work in flight (:meth:`wait_for_room`).
    One condition guards leases, health and membership; every change
    that can make room wakes its waiters.
    """

    def __init__(self, replicas):
        replicas = list(replicas)
        if not replicas:
            raise ValueError("a ReplicaPool needs at least one replica")
        names = [r.name for r in replicas]
        if len(set(names)) != len(names):
            raise ValueError(f"replica names must be unique, got {names}")
        self.replicas = replicas
        #: the :class:`repro.cluster.SharedWeightStore` every local
        #: replica of a :meth:`build` pool reads; ``None`` for
        #: hand-assembled pools
        self.weight_store = None
        #: registry build arguments and reference state for pools made
        #: with :meth:`build` — how :class:`repro.adapt` constructs its
        #: shadow model; ``None`` for hand-assembled pools
        self.build_args = None
        self.reference_state = None
        self._lock = threading.Condition()

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, model="ode_botnet", profile="tiny", n_replicas=2, *,
              config=None, seed=0, pretrained_state=None,
              tiers=None, mode="thread", unhealthy_after=3):
        """Build *n_replicas* identical-weight replicas from the registry.

        The weights are laid into one
        :class:`repro.cluster.SharedWeightStore` (anonymous shared mmap,
        versioned header), exposed as :attr:`weight_store`.  Every
        replica's primary **and tier** float-model parameters are
        rebound onto it *before* its sessions bind their plans, so
        every plan derives from the one mapping, process-mode forks
        inherit the pages instead of duplicating them, and
        :meth:`publish` moves every local replica with one store write
        and one ``weights_version`` bump.  (Compiled plans still lower
        their own copies, and quantized tiers derive their integer
        weights per replica; both re-derive from the store on
        refresh.)

        Parameters
        ----------
        model, profile, seed, pretrained_state:
            forwarded to :func:`repro.models.build_model`; every replica
            shares one weight set, so responses are bit-exact with a
            single direct session (answers must not depend on routing).
        config:
            the :class:`~repro.runtime.SessionConfig` every replica and
            tier session is built with (``None``: ``SessionConfig()``).
        tiers:
            the degrade ladder to build per replica — tier names /
            :class:`~repro.serve.tiers.TierSpec` objects, in order
            (see :func:`~repro.serve.tiers.resolve_ladder`).  Every
            tier session is built from the shared ``state`` dict, so
            quantized tiers derive their integer weights from the same
            weight generation the primary serves.
        mode:
            ``"thread"`` or ``"process"`` (see the module docstring).
        """
        if n_replicas < 1:
            raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
        if mode not in ("thread", "process"):
            raise ValueError(f"unknown mode {mode!r}; choose thread|process")
        if config is None:
            config = SessionConfig()
        ladder = () if tiers is None else resolve_ladder(tiers)
        reference = build_model(model, profile=profile, seed=seed,
                                pretrained_state=pretrained_state,
                                inference=True)
        state = reference.state_dict()
        # lazy import: repro.cluster sits on top of repro.serve
        from ..cluster.shmem import SharedWeightStore

        store = SharedWeightStore.create(state)
        replicas = []
        for i in range(int(n_replicas)):
            stats = SessionStats()
            replica_model = build_model(model, profile=profile, seed=seed,
                                        pretrained_state=state,
                                        inference=True)
            # rebind parameters onto the shared mapping before the
            # session binds its plan, so the plan derives from the
            # mapped arrays (fork then shares the pages)
            store.adopt(replica_model)
            session = InferenceSession(
                replica_model, stats=stats, config=config,
            )
            tier_sessions = {
                spec.name: spec.build_session(
                    model, profile, seed=seed, state=state,
                    config=config, stats=stats, store=store,
                )
                for spec in ladder
            }
            kind = Replica if mode == "thread" else ProcessReplica
            replicas.append(
                kind(f"replica-{i}", session, tier_sessions,
                     unhealthy_after=unhealthy_after)
            )
        pool = cls(replicas)
        pool.weight_store = store
        pool.build_args = {"model": model, "profile": profile, "seed": seed}
        pool.reference_state = state
        return pool

    # ------------------------------------------------------------------
    # elasticity
    # ------------------------------------------------------------------
    def add(self, replica) -> None:
        """Put a new replica (e.g. a freshly connected
        :class:`repro.cluster.RemoteReplica`) into routing."""
        with self._lock:
            if any(r.name == replica.name for r in self.replicas):
                raise ValueError(
                    f"replica name {replica.name!r} already in the pool"
                )
            self.replicas.append(replica)
            self._lock.notify_all()

    def remove(self, name, drain=True, timeout_s=10.0):
        """Take a replica out of routing; returns it (caller closes).

        With *drain* (default) this waits — bounded by ``timeout_s`` —
        for the replica's outstanding leases to finish before
        returning, so in-flight batches complete on it.  The last
        replica cannot be removed.
        """
        with self._lock:
            if len(self.replicas) == 1:
                raise ValueError("cannot remove the last replica")
            for i, replica in enumerate(self.replicas):
                if replica.name == name:
                    del self.replicas[i]
                    break
            else:
                raise KeyError(name)
            # leaving only unhealthy replicas ends wait_for_room
            self._lock.notify_all()
            if drain:
                self._lock.wait_for(lambda: replica.outstanding <= 0,
                                    timeout=float(timeout_s))
        return replica

    # ------------------------------------------------------------------
    def wait_for_room(self) -> None:
        """Block until a healthy replica holds fewer than
        :data:`INFLIGHT_PER_REPLICA` leases.

        Returns at once when no replica is healthy, so the caller's
        next :meth:`acquire` raises
        :class:`~repro.serve.ReplicaUnavailable` instead of waiting.
        """
        with self._lock:
            self._lock.wait_for(self._has_room_locked)

    def _has_room_locked(self):
        healthy = [r for r in self.replicas if r.healthy]
        return not healthy or any(
            r.outstanding < INFLIGHT_PER_REPLICA for r in healthy
        )

    def acquire(self):
        """Lease the healthy replica with the least outstanding work.

        Never blocks (:meth:`wait_for_room` is the wait).  Raises
        :class:`~repro.serve.ReplicaUnavailable` when every replica is
        unhealthy.  Pair with :meth:`release`.
        """
        with self._lock:
            healthy = [r for r in self.replicas if r.healthy]
            if not healthy:
                raise ReplicaUnavailable(
                    f"all {len(self.replicas)} replicas are unhealthy"
                )
            chosen = min(healthy, key=lambda r: r.outstanding)
            chosen.outstanding += 1
            return chosen

    def release(self, replica) -> None:
        """Return a lease taken with :meth:`acquire`."""
        with self._lock:
            replica.outstanding = max(0, replica.outstanding - 1)
            self._lock.notify_all()

    def revive(self, name) -> None:
        """Put an unhealthy replica back into routing (manual probe)."""
        with self._lock:
            for replica in self.replicas:
                if replica.name == name:
                    replica.healthy = True
                    replica.consecutive_failures = 0
                    self._lock.notify_all()
                    return
        raise KeyError(name)

    # ------------------------------------------------------------------
    def publish(self, state) -> list:
        """Move every replica to the weight generation *state*; returns
        the ``weights_version`` each replica now reports, in pool order.

        The one way a generation enters a pool.  A replica with a
        ``publish`` op (:class:`repro.cluster.RemoteReplica`) lives on
        another host and gets *state* over the wire, once per worker
        ``address``: its sibling slots only copy the version back, and
        an address-less one always gets its own copy.  Every other
        replica reads :attr:`weight_store`, so *state* is written into
        the store once, its version is bumped once, and each local
        replica refreshes and takes that version (as in
        :meth:`refresh`).

        Raises ``ValueError`` before anything is written when a local
        replica has no store to read (a hand-assembled pool).  No pool
        lock is held while a replica refreshes or a round trip runs.
        """
        replicas = list(self)  # a snapshot taken under the condition
        remote = [r for r in replicas
                  if callable(getattr(r, "publish", None))]
        local = [r for r in replicas if r not in remote]
        store = self.weight_store
        if store is None and local:
            raise ValueError(
                f"replicas {[r.name for r in local]} read no weight "
                "store, so a publish cannot reach them; build the pool "
                "with ReplicaPool.build"
            )
        if store is not None:
            store.write_arrays(state)
            self._refresh(local)
        published = {}  # worker address -> the version it reported
        for replica in remote:
            address = getattr(replica, "address", None)
            if address in published:
                # a sibling slot: the worker's swap already moved it
                replica.weights_version = published[address]
            else:
                version = replica.publish(state)
                if address is not None:
                    published[address] = version
        return [r.weights_version for r in replicas]

    def refresh(self) -> None:
        """Re-freeze every replica's sessions (all tiers) after a
        weight mutation; each replica's ``weights_version`` ticks.

        With a shared weight store the store's header version is
        bumped exactly once and every replica adopts it, so all
        co-located replicas report the same generation."""
        self._refresh(list(self))

    def _refresh(self, replicas):
        store_version = None
        if self.weight_store is not None:
            store_version = self.weight_store.bump_version()
        for replica in replicas:
            replica.refresh()
            if store_version is not None:
                replica.weights_version = store_version

    def health(self) -> dict:
        """Per-replica health, keyed by replica name."""
        with self._lock:
            return {r.name: r.health() for r in self.replicas}

    def merged_stats(self) -> SessionStats:
        """All replica statistics folded into one fresh SessionStats."""
        merged = SessionStats()
        for replica in self:
            merged.merge(replica.stats)
        return merged

    def close(self) -> None:
        """Release every replica's resources (process workers join)."""
        for replica in self:
            replica.close()
        if self.weight_store is not None:
            self.weight_store.close()

    def __len__(self):
        return len(self.replicas)

    def __iter__(self):
        # iterate a snapshot so an elastic add/remove during a metrics
        # sweep cannot invalidate the iterator
        with self._lock:
            return iter(list(self.replicas))


__all__ = ["INFLIGHT_PER_REPLICA", "Replica", "ChannelReplica",
           "ProcessReplica", "ReplicaPool"]
