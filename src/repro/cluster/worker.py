"""Cluster worker: N local replicas behind one socket acceptor.

``python -m repro.cluster.worker --listen host:port ...`` builds a
normal :class:`~repro.serve.ReplicaPool` (thread or process replicas,
all reading the pool's :class:`~repro.cluster.SharedWeightStore`, so
the host maps one weight set) and serves it over the
:mod:`repro.cluster.wire` protocol.  Each accepted connection gets a
handler thread running :meth:`ClusterWorker.serve_connection`, which
speaks hello-first, then answers ``(op, seq, payload)`` requests
sequentially — one connection is one serialized channel, which is
exactly what a parent-side :class:`~repro.cluster.WorkerClient`
expects.  Parallelism comes from *multiple* connections:
:func:`~repro.cluster.connect_worker` opens one per advertised replica
slot, and the worker's own least-outstanding pool spreads their
concurrent batches over its local replicas.

The same handler serves a :class:`~repro.serve.ProcessReplica`: its
forked child wraps a one-replica pool in a listener-less worker and
runs :meth:`~ClusterWorker.serve_connection` on its end of a
``socket.socketpair()`` — no acceptor, same frames.

Ops: ``run`` (one batch, optional worker-side trace capture shipped
back with the reply), ``health`` (the worker pool's own report),
``stats`` (merged :class:`~repro.runtime.SessionStats`), ``refresh``
(re-freeze all sessions / bump the shared weights version),
``publish`` (apply a pushed weight generation through
:meth:`~repro.serve.ReplicaPool.publish` — the cluster half of
:class:`repro.adapt.WeightPublisher`'s hot swap), ``ping``.
An unknown op or an op-level exception travels back typed on the same
connection; only transport-level failures close it.

The stdout line ``CLUSTER_WORKER_READY <host:port> pid=<pid>
replicas=<n>`` is a stable, parseable readiness contract for harnesses
that launch workers with ``--listen host:0`` (ephemeral port).
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
import threading

from .transport import DEFAULT_TIMEOUT_S, round_trip_timeout, shut
from .wire import (
    WIRE_VERSION,
    PeerGone,
    WireProtocolError,
    format_address,
    parse_address,
    recv_frame,
    send_frame,
)


class ClusterWorker:
    """Serve a :class:`~repro.serve.ReplicaPool` over loopback/LAN TCP.

    Build one with :meth:`build` (registry model + pool knobs, bound
    listener) or wrap a pre-built pool and, optionally, a listening
    socket.  :meth:`start` runs the acceptor in a background thread
    (tests); :meth:`serve_forever` runs it in the calling thread (the
    CLI).  Without a listener the worker serves only the connections
    handed to :meth:`serve_connection`.  :meth:`close` stops the
    acceptor, closes live connections, and closes the pool.
    """

    def __init__(self, pool, *, model="?", profile="?", mode="thread",
                 backend=None, listener=None):
        self.pool = pool
        self.model = str(model)
        self.profile = str(profile)
        self.mode = str(mode)
        self.backend = backend
        self._lock = threading.Lock()
        self._stopping = False   # protected by _lock
        self._conns = set()      # protected by _lock
        self._accept_thread = None
        self._listener = listener
        #: the bound ``(host, port)``; ``None`` without a listener
        self.address = (
            None if listener is None else listener.getsockname()[:2]
        )

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, model="ode_botnet", profile="tiny", replicas=2, *,
              backend=None, mode="thread", tiers=None,
              timeout_s=DEFAULT_TIMEOUT_S, seed=0, unhealthy_after=3,
              config=None, host="127.0.0.1", port=0):
        """Build the local pool from the registry, then bind and wrap it.

        The pool — its shared weight store, and any fork for
        process-mode replicas — is constructed *before* the listening
        socket and threads exist, so children never inherit live
        connections.  ``timeout_s`` bounds each round trip to a
        process-mode replica's child.
        """
        from ..runtime import SessionConfig
        from ..serve.pool import ReplicaPool

        timeout_s = round_trip_timeout(timeout_s)
        if config is None:
            config = SessionConfig()
        if backend is not None:
            config = config.with_backend(backend)
        pool = ReplicaPool.build(
            model, profile=profile, n_replicas=replicas, config=config,
            tiers=tiers, mode=mode, unhealthy_after=unhealthy_after,
        )
        if mode == "process":
            for replica in pool:
                replica.timeout_s = timeout_s
        return cls(
            pool, model=model, profile=profile, mode=mode,
            backend=config.backend,
            listener=socket.create_server((str(host), int(port)),
                                          backlog=64),
        )

    # ------------------------------------------------------------------
    def hello(self) -> dict:
        """The self-description sent first on every connection."""
        first = self.pool.replicas[0]
        store = self.pool.weight_store
        return {
            "wire_version": WIRE_VERSION,
            "model": self.model,
            "profile": self.profile,
            "mode": self.mode,
            "backend": self.backend,
            "tiers": list(first.tier_sessions),
            "replicas": len(self.pool),
            "weights_version": first.weights_version,
            "shared_weights": None if store is None else store.describe(),
            "pid": os.getpid(),
        }

    # ------------------------------------------------------------------
    # ops
    # ------------------------------------------------------------------
    def _op_run(self, payload):
        from ..trace import Tracer

        tier = payload.get("tier")
        samples = payload["samples"]
        replica = self.pool.acquire()
        try:
            if payload.get("want_trace"):
                tracer = Tracer(capacity=8192)
                with tracer.activate():
                    out = replica.run(samples, tier=tier)
                return out, tracer.spans()
            return replica.run(samples, tier=tier), None
        finally:
            self.pool.release(replica)

    def _op_health(self, payload):
        return {
            "address": format_address(self.address),
            "pid": os.getpid(),
            "replicas": len(self.pool),
            "pool": self.pool.health(),
            "weights_version": self.pool.replicas[0].weights_version,
        }

    def _op_stats(self, payload):
        return self.pool.merged_stats()

    def _op_refresh(self, payload):
        self.pool.refresh()
        return self.pool.replicas[0].weights_version

    def _op_publish(self, payload):
        """Apply a pushed weight generation to this host's replicas.

        The cluster half of :class:`repro.adapt.WeightPublisher`:
        :meth:`ReplicaPool.publish <repro.serve.ReplicaPool.publish>`
        writes the arrays into the pool's shared store once, and its
        one header bump moves every co-located replica, forked or not,
        primary and tiers; returns the new version.
        """
        return max(self.pool.publish(payload["state"]))

    def _op_ping(self, payload):
        return "pong"

    _OPS = {
        "run": _op_run,
        "health": _op_health,
        "stats": _op_stats,
        "refresh": _op_refresh,
        "publish": _op_publish,
        "ping": _op_ping,
    }

    # ------------------------------------------------------------------
    # accept / handle
    # ------------------------------------------------------------------
    def start(self):
        """Run the acceptor in a daemon thread; returns the address."""
        thread = threading.Thread(
            target=self._accept_loop,
            name=f"cluster-accept-{format_address(self.address)}",
            daemon=True,
        )
        self._accept_thread = thread
        thread.start()
        return self.address

    def serve_forever(self) -> None:
        """Run the acceptor in the calling thread until :meth:`close`."""
        self._accept_loop()

    def _accept_loop(self):
        while True:
            try:
                conn, _peer = self._listener.accept()
            except OSError:
                return  # listener closed by close()
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                if self._stopping:
                    conn.close()
                    return
                self._conns.add(conn)
            threading.Thread(
                target=self.serve_connection, args=(conn,),
                name="cluster-conn", daemon=True,
            ).start()

    def serve_connection(self, conn):
        """Serve one connected socket until the peer leaves.

        Hello first, then sequential request frames, each answered on
        the same connection; returns (and closes *conn*) on EOF or a
        transport failure.
        """
        try:
            send_frame(conn, ("hello", self.hello()))
            while True:
                try:
                    msg = recv_frame(conn)
                except (PeerGone, OSError):
                    return  # client went away; nothing to answer
                except WireProtocolError:
                    return  # not our protocol; drop the connection
                if (not isinstance(msg, tuple) or len(msg) != 3):
                    return
                op, seq, payload = msg
                handler = self._OPS.get(op)
                try:
                    if handler is None:
                        raise ValueError(f"unknown cluster op {op!r}")
                    result = handler(self, payload or {})
                except Exception as exc:
                    self._reply(conn, seq, "err", self._shippable(exc))
                else:
                    self._reply(conn, seq, "ok", result)
        except (PeerGone, WireProtocolError, OSError):
            pass  # reply failed: connection is gone either way
        finally:
            with self._lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    @staticmethod
    def _shippable(exc):
        """An exception safe to pickle across the wire."""
        import pickle

        try:
            pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
            return exc
        except Exception:
            return RuntimeError(f"{type(exc).__name__}: {exc}")

    @staticmethod
    def _reply(conn, seq, kind, payload):
        send_frame(conn, (seq, kind, payload))

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop accepting, drop live connections, close the pool."""
        with self._lock:
            if self._stopping:
                return
            self._stopping = True
            conns = list(self._conns)
        if self._listener is not None:
            self._listener.close()
        for conn in conns:
            shut(conn)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
        self.pool.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __repr__(self):
        return (
            f"ClusterWorker({format_address(self.address)}, "
            f"model={self.model!r}, replicas={len(self.pool)}, "
            f"mode={self.mode!r})"
        )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster.worker",
        description=(
            "Host N local inference replicas behind one TCP acceptor "
            "for a remote ReplicaPool."
        ),
    )
    parser.add_argument(
        "--listen", default="127.0.0.1:0", metavar="HOST:PORT",
        help="bind address; port 0 picks an ephemeral port, printed on "
             "the CLUSTER_WORKER_READY line (default: %(default)s)",
    )
    parser.add_argument("--model", default="ode_botnet",
                        help="registry model (default: %(default)s)")
    parser.add_argument("--profile", default="tiny",
                        help="model profile (default: %(default)s)")
    parser.add_argument("--replicas", type=int, default=2,
                        help="local replicas to host (default: %(default)s)")
    parser.add_argument("--backend", default=None,
                        help="kernel backend for every replica "
                             "(default: session default)")
    parser.add_argument("--mode", choices=("thread", "process"),
                        default="process",
                        help="local replica execution mode "
                             "(default: %(default)s)")
    parser.add_argument("--tiers", default=None, metavar="T1,T2",
                        help="comma-separated degrade ladder, e.g. "
                             "reduced,int8,int4")
    parser.add_argument("--timeout-s", type=float,
                        default=DEFAULT_TIMEOUT_S,
                        help="per-batch deadline for process replicas "
                             "(default: %(default)s)")
    parser.add_argument("--seed", type=int, default=0,
                        help="weight seed (default: %(default)s)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    host, port = parse_address(args.listen)
    tiers = (
        tuple(t.strip() for t in args.tiers.split(",") if t.strip())
        if args.tiers else None
    )
    worker = ClusterWorker.build(
        args.model, profile=args.profile, replicas=args.replicas,
        backend=args.backend, mode=args.mode, tiers=tiers,
        timeout_s=args.timeout_s, seed=args.seed, host=host, port=port,
    )
    print(
        f"CLUSTER_WORKER_READY {format_address(worker.address)} "
        f"pid={os.getpid()} replicas={len(worker.pool)}",
        flush=True,
    )
    try:
        worker.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        worker.close()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
