"""Length-prefixed, versioned framing for the replica transport.

A stream socket — a TCP connection to a worker host, or the
``socketpair`` between a :class:`~repro.serve.ProcessReplica` and its
forked child — carries bytes, not messages, so this module supplies
the missing layer: every message travels as one **frame** —

::

    +-------+---------+----------+--------------------+
    | magic | version | length   | pickled payload    |
    | 4 B   | 1 B     | 8 B (BE) | ``length`` bytes   |
    +-------+---------+----------+--------------------+

The magic bytes reject cross-protocol garbage (an HTTP client poking
the port) before any unpickling happens; the version byte rejects a
peer speaking a different wire revision with a typed error instead of
undefined behaviour; the length prefix is bounded by
:data:`MAX_FRAME_BYTES` so a corrupt or malicious prefix cannot make
the receiver allocate unbounded memory.

Failure vocabulary (all typed, so :class:`~repro.cluster.RemoteReplica`
health accounting and the load harness can classify without string
matching):

* :class:`WireProtocolError` — the peer sent bytes that are not a
  valid frame (bad magic, unsupported version, oversized length,
  unpicklable body).  The connection is unusable afterwards.
* :class:`PeerGone` — the peer closed the connection, either cleanly
  at a frame boundary or mid-frame (truncation).  Subclasses
  :class:`ConnectionError` so generic socket-failure handling catches
  it too.
* ``TimeoutError`` — a deadline passed while waiting for bytes; the
  caller decides whether the connection survives (the sequence-id
  protocol in :mod:`~repro.cluster.transport` lets a later request
  discard the late reply).

Pickle is the payload encoding because both ends are this codebase by
construction.  A socketpair never leaves the host, but the worker port
must only be reachable by trusted hosts; see ``docs/CLUSTER.md`` for
the deployment note.
"""

from __future__ import annotations

import pickle
import struct

#: frame magic: rejects non-cluster peers before unpickling
MAGIC = b"RPW\x01"

#: wire revision; bumped on any incompatible frame/message change
WIRE_VERSION = 1

#: hard bound on one frame's payload (a corrupt length prefix must not
#: turn into an attempted multi-terabyte allocation)
MAX_FRAME_BYTES = 1 << 30

_HEADER = struct.Struct("!4sBQ")

#: bytes of the fixed frame header
HEADER_BYTES = _HEADER.size


class WireProtocolError(RuntimeError):
    """The peer sent bytes that do not form a valid frame."""


class PeerGone(ConnectionError):
    """The peer closed the connection (cleanly or mid-frame)."""


def encode_frame(obj) -> bytes:
    """One message as header + pickled payload, ready to send."""
    body = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if len(body) > MAX_FRAME_BYTES:
        raise WireProtocolError(
            f"frame payload of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte bound"
        )
    return _HEADER.pack(MAGIC, WIRE_VERSION, len(body)) + body


def decode_header(header: bytes) -> int:
    """Validate a frame header; returns the payload length."""
    magic, version, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise WireProtocolError(
            f"bad frame magic {magic!r} (not a repro.cluster peer?)"
        )
    if version != WIRE_VERSION:
        raise WireProtocolError(
            f"peer speaks wire version {version}, this end speaks "
            f"{WIRE_VERSION}"
        )
    if length > MAX_FRAME_BYTES:
        raise WireProtocolError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte "
            f"bound"
        )
    return length


def recv_exact(sock, n: int, *, what="frame") -> bytes:
    """Read exactly *n* bytes from *sock* (honouring its timeout).

    Raises :class:`PeerGone` when the connection closes first — with a
    message distinguishing a clean close at a message boundary (zero
    bytes read) from a truncated frame (some bytes read).
    ``socket.timeout`` propagates as ``TimeoutError`` (they are the
    same class since Python 3.10; on 3.9 ``socket.timeout`` subclasses
    ``OSError``, so callers catching ``OSError`` still see it).
    """
    chunks = []
    got = 0
    while got < n:
        chunk = sock.recv(n - got)
        if not chunk:
            if got == 0:
                raise PeerGone(f"peer closed the connection before {what}")
            raise PeerGone(
                f"peer closed mid-{what}: got {got} of {n} bytes"
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_frame(sock):
    """Receive and decode one frame from *sock*.

    The socket's own timeout governs blocking; set it with
    ``sock.settimeout`` before calling.  Raises
    :class:`WireProtocolError` / :class:`PeerGone` as described in the
    module docstring.
    """
    header = recv_exact(sock, HEADER_BYTES, what="frame header")
    length = decode_header(header)
    body = recv_exact(sock, length, what="frame body")
    try:
        return pickle.loads(body)
    except Exception as exc:
        raise WireProtocolError(f"undecodable frame payload: {exc}") from exc


def send_frame(sock, obj) -> None:
    """Encode *obj* and send it as one frame on *sock*."""
    sock.sendall(encode_frame(obj))


def parse_address(spec: str):
    """``"host:port"`` -> ``(host, port)`` with a typed error."""
    host, sep, port = str(spec).rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"worker address {spec!r} is not of the form host:port"
        )
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(
            f"worker address {spec!r} has a non-integer port"
        ) from None


def format_address(address) -> str:
    """``(host, port)`` -> ``"host:port"``."""
    host, port = address
    return f"{host}:{port}"


__all__ = [
    "MAGIC",
    "WIRE_VERSION",
    "MAX_FRAME_BYTES",
    "HEADER_BYTES",
    "WireProtocolError",
    "PeerGone",
    "encode_frame",
    "decode_header",
    "recv_exact",
    "recv_frame",
    "send_frame",
    "parse_address",
    "format_address",
]
