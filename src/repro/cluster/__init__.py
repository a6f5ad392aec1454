"""``repro.cluster`` — multi-host replica sharding over TCP.

The distribution layer on top of :mod:`repro.serve`: one
length-prefixed, sequence-id-tagged replica transport, carried over TCP
so one :class:`~repro.serve.ReplicaPool` can span machines — and over
a ``socketpair`` to the forked child of every
:class:`~repro.serve.ProcessReplica`.

* :mod:`~repro.cluster.wire` — framing (magic, version, bounded length
  prefix) with typed :class:`WireProtocolError` / :class:`PeerGone`.
* :class:`WorkerClient` — one serialized, deadline-bounded
  request/response channel with stale-reply discard by sequence id
  (the only round-trip implementation in the tree).
* :class:`RemoteReplica` / :func:`connect_worker` — drop-in replicas
  whose sessions live on a :class:`ClusterWorker` host.
* :class:`ClusterWorker` / ``python -m repro.cluster.worker`` — N
  local replicas behind one socket acceptor; its per-connection
  handler also serves each process replica's child.
* :class:`SharedWeightStore` — mmap-backed shared packed weights with
  a versioned header (one weight copy per host).
* :class:`Autoscaler` — p99 + trace-tail driven add/drain of remote
  replicas.

See ``docs/CLUSTER.md`` for the executable tour.
"""

from .autoscaler import Autoscaler
from .remote import RemoteReplica, connect_worker
from .shmem import STORE_MAGIC, STORE_SCHEMA, SharedWeightStore
from .transport import WorkerClient
from .wire import (
    HEADER_BYTES,
    MAX_FRAME_BYTES,
    WIRE_VERSION,
    PeerGone,
    WireProtocolError,
    parse_address,
)
from .worker import ClusterWorker

__all__ = [
    "Autoscaler",
    "RemoteReplica",
    "connect_worker",
    "SharedWeightStore",
    "STORE_MAGIC",
    "STORE_SCHEMA",
    "WorkerClient",
    "ClusterWorker",
    "WireProtocolError",
    "PeerGone",
    "WIRE_VERSION",
    "HEADER_BYTES",
    "MAX_FRAME_BYTES",
    "parse_address",
]
