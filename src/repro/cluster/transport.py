"""The client half of the replica transport: :class:`WorkerClient`.

One :class:`WorkerClient` owns one connected stream socket whose peer
is a :class:`~repro.cluster.ClusterWorker` connection handler, and
serializes **request/response round trips** over it.  The socket is
either a TCP connection to a worker host (:meth:`WorkerClient.connect`,
behind :class:`~repro.cluster.RemoteReplica`) or one end of a
``socket.socketpair()`` whose other end a forked
:class:`~repro.serve.ProcessReplica` child serves — the same frames,
the same code, one transport.

A lock guards the whole send→recv exchange, every request carries a
monotonically increasing sequence id, and every reply echoes the id of
the request it answers.  The echo is what keeps the channel usable
after a timeout — when a deadline expires mid-round-trip the worker's
late reply stays buffered in the socket, and the *next* request
discards it by sequence id instead of mistaking it for its own answer
and handing the previous batch's outputs to the wrong callers.  Every
round trip is bounded: the default is :data:`DEFAULT_TIMEOUT_S`, and a
``None`` bound is rejected, so a wedged worker can hold the channel
(and the replica lease waiting on it) for at most that long.

Message shapes (all pickled frames, see :mod:`repro.cluster.wire`):

* request:  ``(op, seq, payload)`` where ``op`` is one of ``"run"``,
  ``"health"``, ``"stats"``, ``"refresh"``, ``"publish"``, ``"ping"``;
* reply: ``(seq, "ok", payload)`` or ``(seq, "err", exception)``;
* on connect the worker speaks first with a ``("hello", info)`` frame
  describing itself (model, profile, tiers, replica count, shared
  weight store, wire version) so the client can fail fast on a
  mismatched peer.

Typed failures: :class:`~repro.cluster.wire.PeerGone` /
``OSError`` mean the worker died (the owning replica counts it against
health); ``TimeoutError`` means this round trip ran out of budget but
the channel survives; :class:`~repro.cluster.wire.WireProtocolError`
means the peer is not speaking our protocol and the connection is
abandoned.
"""

from __future__ import annotations

import math
import pickle
import socket
import threading
import time

from .wire import (
    HEADER_BYTES,
    WIRE_VERSION,
    PeerGone,
    WireProtocolError,
    decode_header,
    encode_frame,
    format_address,
    recv_frame,
)

#: default bound on one round trip, in seconds.  The slowest legitimate
#: round trip in the repo — the scalar fixed-point path at the paper
#: geometry — takes ~2.4 s for a batch of 8
#: (``BENCH_quantized_speedup.json``), so this leaves ample room while
#: still freeing a channel held by a wedged worker.
DEFAULT_TIMEOUT_S = 60.0


def round_trip_timeout(timeout_s) -> float:
    """Validate a round-trip bound: a positive, finite number of seconds.

    ``None`` ("wait forever") is rejected — it would let one wedged
    worker hold its channel lock, and the replica lease behind it,
    indefinitely.
    """
    if timeout_s is None or not 0.0 < float(timeout_s) < math.inf:
        raise ValueError(
            f"timeout_s must be a positive, finite number of seconds "
            f"(default {DEFAULT_TIMEOUT_S}), got {timeout_s!r}"
        )
    return float(timeout_s)


def shut(sock) -> None:
    """Shut *sock* down both ways, then close it; never raises.

    A forked child inherits every socket the parent held at fork time,
    so a sibling process may keep a duplicate of this descriptor open.
    ``close()`` alone then never reaches the peer as EOF;
    ``shutdown()`` acts on the socket itself, whoever else holds it.
    """
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # already disconnected
    try:
        sock.close()
    except OSError:
        pass


class WorkerClient:
    """One serialized request/response channel to a cluster worker.

    Parameters
    ----------
    sock:
        a connected stream socket whose peer is a
        :class:`~repro.cluster.ClusterWorker` connection handler — a
        TCP connection (see :meth:`connect`) or one end of a
        ``socket.socketpair()``.  The client owns it from here on.
    timeout_s:
        default per-round-trip deadline; must be finite (see
        :func:`round_trip_timeout`).  Individual :meth:`request` calls
        may override it.
    connect_timeout_s:
        budget for the worker's hello frame.
    """

    def __init__(self, sock, *, timeout_s=DEFAULT_TIMEOUT_S,
                 connect_timeout_s=10.0):
        self._sock = sock
        self._lock = threading.Lock()
        self._seq = 0          # protected by _lock
        self._closed = False   # protected by _lock
        try:
            self.timeout_s = round_trip_timeout(timeout_s)
            peer = sock.getpeername()
            #: ``host:port`` of a TCP worker; a socketpair end has no
            #: address
            self.peer = (
                format_address(peer[:2]) if isinstance(peer, tuple)
                else "socketpair"
            )
            sock.settimeout(connect_timeout_s)
            kind, info = recv_frame(sock)
            if kind != "hello" or not isinstance(info, dict):
                raise WireProtocolError(
                    f"peer at {self.peer} did not say hello "
                    f"(got {kind!r})"
                )
            if info.get("wire_version") != WIRE_VERSION:
                raise WireProtocolError(
                    f"worker speaks wire version "
                    f"{info.get('wire_version')}, this client speaks "
                    f"{WIRE_VERSION}"
                )
        except BaseException:
            sock.close()
            raise
        #: the worker's self-description from its hello frame
        self.info = info

    @classmethod
    def connect(cls, address, *, timeout_s=DEFAULT_TIMEOUT_S,
                connect_timeout_s=10.0):
        """Dial the worker listening at ``(host, port)``.

        ``connect_timeout_s`` bounds the TCP connect and, again, the
        hello frame.  Small request frames go out at once
        (``TCP_NODELAY``).
        """
        sock = socket.create_connection(
            (str(address[0]), int(address[1])), timeout=connect_timeout_s
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return cls(sock, timeout_s=timeout_s,
                   connect_timeout_s=connect_timeout_s)

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether the channel has been closed (locally or by error)."""
        with self._lock:
            return self._closed

    def _recv_exact_locked(self, n, deadline, what):
        """Read exactly *n* bytes; the caller holds ``_lock``.

        Re-arms the socket timeout from *deadline* before every read so
        the whole round trip — not each read — is what the budget
        bounds.  Raises :class:`PeerGone` on EOF, ``TimeoutError`` when
        the deadline passes.
        """
        chunks, got = [], 0
        while got < n:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise TimeoutError(
                    f"worker {self.peer} did not answer within the "
                    f"round-trip deadline"
                )
            self._sock.settimeout(remaining)
            # This suppression (and its twin in request) is one
            # deliberate design: _lock exists precisely to serialize
            # the whole send->recv round trip — the seq-echo protocol
            # assumes one in-flight request per channel — and every
            # read is deadline-bounded via the settimeout above.
            chunk = self._sock.recv(min(1 << 20, n - got))  # repro-lint: ignore[CON003] lock serializes the round trip; deadline-bounded via settimeout
            if not chunk:
                if got == 0:
                    raise PeerGone(
                        f"worker {self.peer} closed the connection "
                        f"before {what}"
                    )
                raise PeerGone(
                    f"worker {self.peer} closed mid-{what}: got {got} "
                    f"of {n} bytes"
                )
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks)

    def _recv_reply_locked(self, seq, deadline):
        """Receive frames until one echoes *seq*; discard stale replies.

        Contract: the caller holds ``_lock``.  A reply whose sequence
        id is not *seq* answers a request that already timed out — it
        is dropped here, never returned as the current answer.
        """
        while True:
            header = self._recv_exact_locked(
                HEADER_BYTES, deadline, "reply header"
            )
            body = self._recv_exact_locked(
                decode_header(header), deadline, "reply body"
            )
            try:
                reply = pickle.loads(body)
            except Exception as exc:
                raise WireProtocolError(
                    f"undecodable reply frame: {exc}"
                ) from exc
            if not isinstance(reply, tuple) or len(reply) != 3:
                raise WireProtocolError(
                    f"malformed reply {type(reply).__name__} "
                    f"(expected (seq, kind, payload))"
                )
            reply_seq, kind, payload = reply
            if reply_seq == seq:
                return kind, payload
            # stale reply to an earlier timed-out request: discard

    def request(self, op, payload=None, *, timeout_s=None):
        """One serialized round trip; returns the reply payload.

        A worker-side exception travels back typed and is re-raised
        here.  ``timeout_s`` overrides the client default for this
        call only; ``None`` means the client default.
        """
        if timeout_s is None:
            timeout_s = self.timeout_s
        with self._lock:
            if self._closed:
                raise PeerGone(f"connection to {self.peer} is closed")
            self._seq += 1
            seq = self._seq
            deadline = time.perf_counter() + float(timeout_s)
            frame = encode_frame((op, seq, payload))
            try:
                self._sock.settimeout(
                    max(1e-3, deadline - time.perf_counter())
                )
                # same deliberate round-trip design as _recv_exact_locked
                self._sock.sendall(frame)  # repro-lint: ignore[CON003] lock serializes the round trip; deadline-bounded via settimeout
                kind, result = self._recv_reply_locked(seq, deadline)
            except (PeerGone, WireProtocolError, OSError) as exc:
                # a dead or desynced channel is poisoned so later
                # callers fail fast; a plain timeout is survivable (the
                # seq protocol discards the late reply), and
                # socket.timeout IS TimeoutError on 3.10+ but only an
                # OSError on 3.9 — hence the isinstance split
                if not isinstance(exc, (TimeoutError, socket.timeout)):
                    self._closed = True
                    shut(self._sock)
                raise
        if kind == "err":
            raise result
        return result

    def close(self) -> None:
        """Close the channel; idempotent.  The peer sees EOF even when
        a forked sibling holds a duplicate of this end (see
        :func:`shut`)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            shut(self._sock)

    def __repr__(self):
        return f"WorkerClient({self.peer}, closed={self.closed})"


__all__ = ["DEFAULT_TIMEOUT_S", "WorkerClient",
           "round_trip_timeout", "shut"]
