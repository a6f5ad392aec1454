"""repro.cluster: wire framing, transport, worker, shared weights,
autoscaler, and the elastic serving surface they plug into.

The cluster layer's contract, pinned:

* the wire protocol fails **typed** on every malformed input — bad
  magic, wrong version, oversized length, truncated prefix, peer gone
  mid-frame, undecodable payload — and never hands garbage upward;
* a :class:`~repro.cluster.WorkerClient` round trip survives a
  timeout: the late reply is discarded by sequence id, never returned
  as a later request's answer — over TCP and over the socketpair a
  :class:`~repro.serve.ProcessReplica` uses — and every round trip is
  bounded by a finite default deadline;
* :class:`~repro.cluster.RemoteReplica` responses are bit-exact with a
  direct :class:`~repro.runtime.InferenceSession` for every registry
  model — distribution reschedules computation, never changes it;
* every pool ``ReplicaPool.build`` makes maps **one** weight set per
  host: every replica's parameters view the same mmap, and the
  versioned header propagates one refresh bump to all of them;
* the elastic pool surface (``add`` / ``remove`` / resized dispatch
  slots) and the autoscaler's pure ``evaluate`` decisions behave;
* a 3x overload soak across two workers completes with zero hung
  futures and a bounded queue.

Workers run in-process (thread-mode pools over loopback) so the suite
stays fast on 1-CPU runners; subprocess workers are exercised by the
CLI smoke test and ``benchmarks/test_cluster_scaling.py``.
"""

import os
import socket
import struct
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.cluster import (
    Autoscaler,
    ClusterWorker,
    PeerGone,
    RemoteReplica,
    SharedWeightStore,
    STORE_MAGIC,
    STORE_SCHEMA,
    WIRE_VERSION,
    WireProtocolError,
    WorkerClient,
    connect_worker,
    parse_address,
)
from repro.cluster.transport import DEFAULT_TIMEOUT_S
from repro.cluster.worker import build_parser as worker_cli_parser
from repro.cluster.wire import (
    HEADER_BYTES,
    MAGIC,
    MAX_FRAME_BYTES,
    decode_header,
    encode_frame,
    format_address,
    recv_frame,
    send_frame,
)
from repro.adapt import WeightPublisher
from repro.models import build_model
from repro.models.registry import MODELS, PROFILES
from repro.runtime import InferenceSession, SessionConfig
from repro.serve import (
    ProcessReplica,
    Replica,
    ReplicaPool,
    Server,
    arrival_offsets,
    calibrate_rate,
    run_load,
)
from repro.serve.pool import INFLIGHT_PER_REPLICA

SIZE = PROFILES["tiny"]["input_size"]

_HEADER = struct.Struct("!4sBQ")


def _samples(n=2, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 3, SIZE, SIZE)).astype(np.float32)


def _direct(model_name, x):
    return InferenceSession(
        build_model(model_name, profile="tiny", seed=0, inference=True)
    ).predict_batch(x)


def _echo_session(scale=1.0):
    def fn(batch):
        batch = np.asarray(batch)
        return scale * batch.reshape(batch.shape[0], -1).sum(axis=1)[:, None]

    return InferenceSession(fn)


# ----------------------------------------------------------------------
# wire framing
# ----------------------------------------------------------------------
class TestWire:
    def _pair(self):
        a, b = socket.socketpair()
        a.settimeout(5)
        b.settimeout(5)
        return a, b

    def test_frame_round_trip(self):
        a, b = self._pair()
        try:
            payload = {"op": "run", "x": np.arange(4.0)}
            send_frame(a, payload)
            out = recv_frame(b)
            assert out["op"] == "run"
            np.testing.assert_array_equal(out["x"], payload["x"])
        finally:
            a.close()
            b.close()

    def test_bad_magic_is_typed(self):
        a, b = self._pair()
        try:
            a.sendall(_HEADER.pack(b"HTTP", WIRE_VERSION, 4) + b"oops")
            with pytest.raises(WireProtocolError, match="magic"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_version_mismatch_is_typed(self):
        a, b = self._pair()
        try:
            a.sendall(_HEADER.pack(MAGIC, WIRE_VERSION + 1, 1) + b"x")
            with pytest.raises(WireProtocolError, match="version"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_oversized_length_rejected_before_allocation(self):
        # a corrupt prefix must not turn into a giant recv buffer
        header = _HEADER.pack(MAGIC, WIRE_VERSION, MAX_FRAME_BYTES + 1)
        with pytest.raises(WireProtocolError, match="bound"):
            decode_header(header)

    def test_truncated_prefix_is_peer_gone(self):
        a, b = self._pair()
        try:
            a.sendall(encode_frame("hello")[: HEADER_BYTES - 3])
            a.close()
            with pytest.raises(PeerGone, match="mid-frame header"):
                recv_frame(b)
        finally:
            b.close()

    def test_truncated_body_is_peer_gone(self):
        a, b = self._pair()
        try:
            frame = encode_frame("a reasonably long payload string")
            a.sendall(frame[: HEADER_BYTES + 5])
            a.close()
            with pytest.raises(PeerGone, match="mid-frame body"):
                recv_frame(b)
        finally:
            b.close()

    def test_clean_close_is_peer_gone(self):
        a, b = self._pair()
        a.close()
        try:
            with pytest.raises(PeerGone, match="before frame"):
                recv_frame(b)
        finally:
            b.close()

    def test_undecodable_payload_is_typed(self):
        a, b = self._pair()
        try:
            a.sendall(_HEADER.pack(MAGIC, WIRE_VERSION, 4) + b"\xff\xff\xff\xff")
            with pytest.raises(WireProtocolError, match="undecodable"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_parse_address(self):
        assert parse_address("127.0.0.1:8421") == ("127.0.0.1", 8421)
        host, port = parse_address(format_address(("worker-3", 9000)))
        assert (host, port) == ("worker-3", 9000)
        with pytest.raises(ValueError, match="host:port"):
            parse_address("no-port-here")
        with pytest.raises(ValueError, match="non-integer port"):
            parse_address("host:eighty")


# ----------------------------------------------------------------------
# transport robustness against a scripted peer
# ----------------------------------------------------------------------
def _hello(**over):
    info = {"wire_version": WIRE_VERSION, "replicas": 1, "tiers": [],
            "weights_version": 1}
    info.update(over)
    return info


class _ScriptedPeer:
    """A worker stand-in that speaks one scripted connection.

    Over ``"tcp"`` it listens on loopback; over ``"socketpair"`` it
    serves one end of a ``socket.socketpair()`` — the channel a
    :class:`~repro.serve.ProcessReplica` holds to its forked child.
    """

    def __init__(self, script, hello=_hello, transport="tcp"):
        self._listener = self._pair_end = None
        if transport == "tcp":
            self._listener = socket.socket()
            self._listener.bind(("127.0.0.1", 0))
            self._listener.listen(1)
            self.address = self._listener.getsockname()[:2]
            serve_end = None
        else:
            self._pair_end, serve_end = socket.socketpair()
        self.error = None
        self._thread = threading.Thread(
            target=self._run, args=(script, hello, serve_end), daemon=True
        )
        self._thread.start()

    def client(self, **kw):
        """A :class:`WorkerClient` on the other end of the channel."""
        if self._listener is not None:
            return WorkerClient.connect(self.address, **kw)
        return WorkerClient(self._pair_end, **kw)

    def _run(self, script, hello, conn):
        if conn is None:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
        conn.settimeout(10)
        try:
            if hello is not None:
                send_frame(conn, ("hello", hello()))
            script(conn)
        except Exception as exc:  # surfaced by close()
            self.error = exc
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def close(self):
        if self._listener is not None:
            self._listener.close()
        self._thread.join(timeout=5)
        if self.error is not None:
            raise self.error


class TestWorkerClient:
    #: the channel every scripted peer below speaks over
    transport = "tcp"

    def _peer(self, script, hello=_hello):
        return _ScriptedPeer(script, hello, transport=self.transport)

    def test_rejects_peer_that_does_not_say_hello(self):
        def script(conn):
            pass

        peer = self._peer(script, hello=lambda: None)

        def bad_hello(conn):
            send_frame(conn, ("nothello", {}))

        peer2 = self._peer(bad_hello, hello=None)
        try:
            with pytest.raises((WireProtocolError, PeerGone)):
                peer.client(connect_timeout_s=5)
            with pytest.raises(WireProtocolError, match="hello"):
                peer2.client(connect_timeout_s=5)
        finally:
            peer.close()
            peer2.close()

    def test_rejects_wire_version_mismatch(self):
        peer = self._peer(
            lambda conn: None,
            hello=lambda: _hello(wire_version=WIRE_VERSION + 1),
        )
        try:
            with pytest.raises(WireProtocolError, match="wire version"):
                peer.client(connect_timeout_s=5)
        finally:
            peer.close()

    def test_malformed_reply_poisons_the_connection(self):
        def script(conn):
            recv_frame(conn)
            send_frame(conn, ["not", "a-3-tuple"])

        peer = self._peer(script)
        try:
            client = peer.client(connect_timeout_s=5)
            with pytest.raises(WireProtocolError, match="malformed reply"):
                client.request("ping", timeout_s=5)
            assert client.closed
            with pytest.raises(PeerGone, match="closed"):
                client.request("ping")
        finally:
            peer.close()

    def test_stale_sequence_ids_are_discarded(self):
        def script(conn):
            _op, seq, _payload = recv_frame(conn)
            send_frame(conn, (seq - 1, "ok", "stale"))
            send_frame(conn, (seq, "ok", "fresh"))

        peer = self._peer(script)
        try:
            client = peer.client(connect_timeout_s=5)
            assert client.request("ping", timeout_s=5) == "fresh"
            assert not client.closed
            client.close()
        finally:
            peer.close()

    def test_timeout_survives_and_late_reply_is_discarded(self):
        # a timed-out request's reply stays buffered in the socket; the
        # next request must discard it by sequence id, not hand the old
        # answer to a new caller
        def script(conn):
            _op, seq1, _ = recv_frame(conn)
            time.sleep(0.5)
            send_frame(conn, (seq1, "ok", "late answer"))
            _op, seq2, _ = recv_frame(conn)
            send_frame(conn, (seq2, "ok", "right answer"))

        peer = self._peer(script)
        try:
            client = peer.client(connect_timeout_s=5)
            with pytest.raises(TimeoutError):
                client.request("ping", timeout_s=0.1)
            assert not client.closed  # a timeout is survivable
            assert client.request("ping", timeout_s=10) == "right answer"
            client.close()
        finally:
            peer.close()

    def test_mid_batch_disconnect_is_peer_gone(self):
        def script(conn):
            recv_frame(conn)  # take the request, answer with nothing

        peer = self._peer(script)
        try:
            client = peer.client(connect_timeout_s=5)
            with pytest.raises(PeerGone):
                client.request("run", {"x": 1}, timeout_s=5)
            assert client.closed
        finally:
            peer.close()

    def test_shipped_exception_is_reraised_typed(self):
        def script(conn):
            _op, seq, _ = recv_frame(conn)
            send_frame(conn, (seq, "err", ValueError("worker says no")))

        peer = self._peer(script)
        try:
            client = peer.client(connect_timeout_s=5)
            with pytest.raises(ValueError, match="worker says no"):
                client.request("run", timeout_s=5)
            assert not client.closed  # an op error is not a wire error
            client.close()
        finally:
            peer.close()


class TestWorkerClientSocketpair(TestWorkerClient):
    """Every scripted-peer case again, over a ``socketpair``."""

    transport = "socketpair"


# ----------------------------------------------------------------------
# the worker + RemoteReplica, in-process over loopback
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def worker():
    with ClusterWorker.build("ode_botnet", "tiny", 2, mode="thread") as w:
        w.start()
        yield w


class TestClusterWorker:
    def test_hello_advertises_the_pool(self, worker):
        client = WorkerClient.connect(worker.address, connect_timeout_s=5)
        try:
            info = client.info
            assert info["wire_version"] == WIRE_VERSION
            assert info["model"] == "ode_botnet"
            assert info["profile"] == "tiny"
            assert info["replicas"] == 2
            assert info["weights_version"] >= 1
            assert info["shared_weights"]["magic"] == STORE_MAGIC.decode()
            assert info["shared_weights"]["schema"] == STORE_SCHEMA
        finally:
            client.close()

    def test_build_serves_the_weights_of_its_seed(self):
        def stem(seed):
            return build_model("ode_botnet", profile="tiny",
                               seed=seed).state_dict()["stem.0.weight"]

        with ClusterWorker.build("ode_botnet", "tiny", 1, mode="thread",
                                 seed=5) as w:
            model = w.pool.replicas[0].session.model
            served = model.state_dict()["stem.0.weight"]
            assert np.array_equal(served, stem(5))
            assert not np.array_equal(served, stem(0))

    @pytest.mark.parametrize("model_name", sorted(MODELS))
    def test_remote_replica_bit_exact_for_every_registry_model(
            self, model_name):
        x = _samples(2)
        direct = _direct(model_name, x)
        with ClusterWorker.build(model_name, "tiny", 1,
                                 mode="thread") as w:
            w.start()
            replica = RemoteReplica(w.address, timeout_s=60)
            try:
                np.testing.assert_array_equal(replica.run(x), direct)
            finally:
                replica.close()

    def test_unknown_op_is_typed_and_survivable(self, worker):
        client = WorkerClient.connect(worker.address, connect_timeout_s=5)
        try:
            with pytest.raises(ValueError, match="unknown cluster op"):
                client.request("frobnicate", timeout_s=5)
            assert client.request("ping", timeout_s=5) == "pong"
        finally:
            client.close()

    def test_worker_side_failure_feeds_health_accounting(self, worker):
        replica = RemoteReplica(worker.address, timeout_s=30,
                                unhealthy_after=3)
        try:
            with pytest.raises(Exception):
                replica.run(np.zeros((1, 7), np.float32))  # bad shape
            assert replica.consecutive_failures == 1
            assert replica.healthy  # one failure is under the threshold
            np.testing.assert_array_equal(
                replica.run(_samples(1)), _direct("ode_botnet", _samples(1))
            )
            assert replica.consecutive_failures == 0
        finally:
            replica.close()

    def test_connect_worker_opens_one_slot_per_advertised_replica(
            self, worker):
        replicas = connect_worker(worker.address, timeout_s=30)
        try:
            assert len(replicas) == 2
            assert len({r.name for r in replicas}) == 2
            x = _samples(2)
            direct = _direct("ode_botnet", x)
            for replica in replicas:
                np.testing.assert_array_equal(replica.run(x), direct)
                assert replica.health()["remote"] is True
        finally:
            for replica in replicas:
                replica.close()

    def test_remote_health_stats_and_ping(self, worker):
        replica = RemoteReplica(worker.address, timeout_s=30)
        try:
            replica.run(_samples(2))
            report = replica.remote_health()
            assert report["replicas"] == 2
            assert set(report["pool"]) == {"replica-0", "replica-1"}
            assert replica.ping() >= 0.0
            stats = replica.remote_stats()
            assert stats.snapshot()["requests"] >= 2
            # parent-side stats track round trips independently
            assert replica.stats.snapshot()["batches"] == 1
        finally:
            replica.close()

    def test_remote_publish_moves_tier_sessions(self):
        """A worker-side publish must move the degrade-tier sessions
        too, not just the primary."""
        from repro.serve.tiers import BUILTIN_TIERS

        tiers = ("reduced", "int8")
        x = _samples(2)
        with ClusterWorker.build("ode_botnet", "tiny", 1, mode="thread",
                                 tiers=tiers) as w:
            w.start()
            replica = RemoteReplica(w.address, timeout_s=60)
            try:
                before = {t: replica.run(x, tier=t) for t in tiers}
                state = build_model("ode_botnet", profile="tiny",
                                    seed=99).state_dict()
                replica.publish(state)
                for tier in tiers:
                    after = replica.run(x, tier=tier)
                    assert not np.array_equal(before[tier], after), tier
                    expected = BUILTIN_TIERS[tier].build_session(
                        "ode_botnet", "tiny", state=state,
                    ).predict_batch(x)
                    np.testing.assert_array_equal(after, expected,
                                                  err_msg=tier)
            finally:
                replica.close()

    def test_refresh_propagates_the_shared_version(self, worker):
        replica = RemoteReplica(worker.address, timeout_s=30)
        try:
            before = replica.weights_version
            replica.refresh()
            assert replica.weights_version == before + 1
            assert (worker.pool.weight_store.version
                    == replica.weights_version)
        finally:
            replica.close()

    def test_worker_trace_spans_ship_back(self, worker):
        from repro.trace import Tracer

        replica = RemoteReplica(worker.address, timeout_s=30)
        tracer = Tracer()
        try:
            with tracer.activate():
                replica.run(_samples(1))
            assert tracer.spans(), "worker-side spans should be ingested"
        finally:
            replica.close()


# ----------------------------------------------------------------------
# every round trip is bounded
# ----------------------------------------------------------------------
class TestRoundTripBounds:
    def test_every_channel_has_a_finite_default(self, worker):
        process = ProcessReplica("p0", _echo_session())
        remote = RemoteReplica(worker.address)
        slots = connect_worker(worker.address, slots=1)
        client = WorkerClient.connect(worker.address)
        scaler = Autoscaler(_FakeServer(1), [worker.address])
        try:
            for bounded in (process, remote, *slots, client, scaler):
                assert 0 < bounded.timeout_s < float("inf"), bounded
            assert process.timeout_s == DEFAULT_TIMEOUT_S
            assert worker_cli_parser().parse_args([]).timeout_s == (
                DEFAULT_TIMEOUT_S)
        finally:
            for channel in (process, remote, *slots, client):
                channel.close()

    def test_waiting_forever_is_rejected(self, worker):
        unbounded = {"timeout_s": None}
        with pytest.raises(ValueError, match="finite"):
            ProcessReplica("p0", _echo_session(), **unbounded)
        with pytest.raises(ValueError, match="finite"):
            RemoteReplica(worker.address, **unbounded)
        with pytest.raises(ValueError, match="finite"):
            connect_worker(worker.address, **unbounded)
        with pytest.raises(ValueError, match="finite"):
            WorkerClient.connect(worker.address, **unbounded)
        with pytest.raises(ValueError, match="finite"):
            Autoscaler(_FakeServer(1), [worker.address], **unbounded)
        with pytest.raises(ValueError, match="finite"):
            ClusterWorker.build("ode_botnet", "tiny", 1, **unbounded)
        with pytest.raises(ValueError, match="finite"):
            WorkerClient.connect(worker.address, timeout_s=float("inf"))


# ----------------------------------------------------------------------
# shared packed weights
# ----------------------------------------------------------------------
class TestSharedWeightStore:
    def test_create_views_and_versioned_header(self):
        state = build_model("ode_botnet", profile="tiny", seed=0,
                            inference=True).state_dict()
        store = SharedWeightStore.create(state)
        try:
            assert set(store.names) == set(state)
            views = store.arrays()
            for name, value in state.items():
                np.testing.assert_array_equal(views[name],
                                              np.asarray(value))
                assert views[name].base is store._mm  # zero-copy
            header = store.describe()
            assert header["magic"] == STORE_MAGIC.decode()
            assert header["schema"] == STORE_SCHEMA
            assert header["weights_version"] == 1
            assert store.bump_version() == 2
            assert store.describe()["weights_version"] == 2
        finally:
            store.close()

    def test_pool_maps_one_copy_per_host(self):
        pool = ReplicaPool.build("ode_botnet", "tiny", 2)
        try:
            store = pool.weight_store
            assert store is not None
            for replica in pool:
                for _name, param in replica.session.model.named_parameters():
                    # every replica's weights are views over the one
                    # shared mapping, not private copies
                    assert param.data.base is store._mm
            x = _samples(3)
            direct = _direct("ode_botnet", x)
            for replica in pool:
                np.testing.assert_array_equal(replica.run(x), direct)
        finally:
            pool.close()

    def test_refresh_bumps_the_store_version_once_for_all(self):
        pool = ReplicaPool.build("ode_botnet", "tiny", 2)
        try:
            pool.refresh()
            versions = {r.weights_version for r in pool}
            assert versions == {pool.weight_store.version}
            assert pool.weight_store.version == 2
        finally:
            pool.close()

    def test_adopt_rejects_shape_mismatch(self):
        state = build_model("ode_botnet", profile="tiny", seed=0,
                            inference=True).state_dict()
        store = SharedWeightStore.create(state)
        try:
            other = build_model("ode_botnet", profile="small", seed=0,
                                inference=True)
            with pytest.raises((ValueError, KeyError)):
                store.adopt(other)
        finally:
            store.close()

    def test_adopt_rejects_dtype_mismatch(self):
        state = build_model("ode_botnet", profile="tiny", seed=0,
                            inference=True).state_dict()
        store = SharedWeightStore.create(state)
        try:
            other = build_model("ode_botnet", profile="tiny", seed=0,
                                inference=True)
            param = dict(other.named_parameters())["stem.0.weight"]
            param.data = param.data.astype(np.float64)
            with pytest.raises(ValueError,
                               match="dtype mismatch for stem.0.weight"):
                store.adopt(other)
        finally:
            store.close()

    def test_write_arrays_validates_before_writing(self):
        state = build_model("ode_botnet", profile="tiny", seed=0,
                            inference=True).state_dict()
        store = SharedWeightStore.create(state)
        try:
            name = next(
                n for n in store.names if store.arrays()[n].ndim >= 2
            )
            before = store.arrays()[name].copy()
            bad = dict(state)
            bad[name] = np.zeros(
                tuple(d + 1 for d in before.shape), np.float32
            )
            with pytest.raises(ValueError, match="shape mismatch"):
                store.write_arrays(bad)
            # validate-then-write: nothing was touched
            np.testing.assert_array_equal(store.arrays()[name], before)
            with pytest.raises(KeyError, match="no array named"):
                store.write_arrays({"nope": np.zeros(1)})
            assert store.version == 1  # writes never move the header
        finally:
            store.close()

    def test_refresh_never_exposes_torn_versions(self):
        """Readers racing ``refresh`` see monotone, fully-published
        versions — and a version implies its arrays were written.

        Each generation ``g`` writes every array to the constant ``g``
        before the header moves to ``g + 1``.  A reader that samples
        the version, then an array, then the version again and finds
        both versions equal to ``v`` must observe array values from
        generation ``v - 1`` *or newer* — never older (the header only
        moves after the arrays), and never a decreasing version.
        """
        state = {
            "a": np.zeros((64, 64), np.float32),
            "b": np.zeros((128,), np.float32),
        }
        store = SharedWeightStore.create(state)
        generations = 40
        errors = []
        stop = threading.Event()

        def reader():
            last = 0
            while not stop.is_set():
                v0 = store.version
                a = float(store.arrays()["a"][0, 0])
                v1 = store.version
                if v0 < last:
                    errors.append(f"version went backwards: {last}->{v0}")
                    return
                last = v0
                if v0 == v1 and a < v0 - 1:
                    errors.append(
                        f"torn read: version {v0} but array from "
                        f"generation {a}"
                    )
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        try:
            for t in threads:
                t.start()
            for g in range(1, generations + 1):
                store.refresh({
                    "a": np.full((64, 64), float(g), np.float32),
                    "b": np.full((128,), float(g), np.float32),
                })
            stop.set()
            for t in threads:
                t.join(timeout=10)
            assert not errors, errors
            assert store.version == generations + 1
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=10)
            store.close()

    def test_refresh_races_inflight_run_ops(self):
        """Hot swaps land while replicas serve: zero failed requests,
        monotone non-torn versions, and post-swap outputs bit-exact
        with the final published generation."""
        pool = ReplicaPool.build("ode_botnet", "tiny", 2)
        try:
            x = _samples(2)
            states = [
                build_model("ode_botnet", profile="tiny",
                            seed=s).state_dict()
                for s in (0, 7)
            ]
            errors = []
            stop = threading.Event()

            def serve(replica):
                last = 0
                while not stop.is_set():
                    try:
                        out = replica.run(x)
                    except Exception as exc:
                        errors.append(repr(exc))
                        return
                    if out.shape[0] != len(x):
                        errors.append(f"bad output {out.shape}")
                        return
                    version = pool.weight_store.version
                    if version < last:
                        errors.append(
                            f"version reversed {last}->{version}")
                        return
                    last = version

            threads = [
                threading.Thread(target=serve, args=(r,)) for r in pool
            ]
            for t in threads:
                t.start()
            publisher = WeightPublisher(pool)
            for i in range(12):
                publisher.publish(states[i % 2])
            stop.set()
            for t in threads:
                t.join(timeout=30)
            assert not errors, errors
            assert pool.weight_store.version == 13
            # settled state == the last published generation, bit-exact
            final = build_model("ode_botnet", profile="tiny", seed=7,
                                pretrained_state=states[1],
                                inference=True)
            expected = InferenceSession(final).predict_batch(x)
            for replica in pool:
                np.testing.assert_array_equal(replica.run(x), expected)
        finally:
            pool.close()


# ----------------------------------------------------------------------
# elastic serving surface
# ----------------------------------------------------------------------
class TestElasticity:
    def test_pool_add_and_remove(self):
        pool = ReplicaPool([Replica("a", _echo_session()),
                            Replica("b", _echo_session())])
        with pytest.raises(ValueError, match="already in the pool"):
            pool.add(Replica("a", _echo_session()))
        pool.add(Replica("c", _echo_session()))
        assert len(pool) == 3
        removed = pool.remove("b")
        assert removed.name == "b"
        with pytest.raises(KeyError):
            pool.remove("nope")
        pool.remove("c")
        with pytest.raises(ValueError, match="last replica"):
            pool.remove("a")

    def test_pool_remove_drains_on_release_and_times_out(self):
        pool = ReplicaPool([Replica("a", _echo_session()),
                            Replica("b", _echo_session())])
        leases = {r.name: r for r in (pool.acquire(), pool.acquire())}
        b = leases["b"]
        removed = []
        remover = threading.Thread(
            target=lambda: removed.append(pool.remove("b", timeout_s=30)))
        remover.start()
        # the pool lock is free again only once remove() waits to drain
        deadline = time.monotonic() + 10
        while [r.name for r in pool] != ["a"]:
            assert time.monotonic() < deadline, "remove() never started"
            time.sleep(0.001)
        assert remover.is_alive()  # b's lease is still out
        t0 = time.monotonic()
        pool.release(b)
        remover.join(timeout=5)
        assert not remover.is_alive()
        assert time.monotonic() - t0 < 1.0
        assert removed == [b] and b.outstanding == 0
        # a lease that never comes back: give up after timeout_s
        pool.add(b)
        assert pool.acquire() is b  # a still holds its lease
        t0 = time.monotonic()
        assert pool.remove("b", timeout_s=0.2) is b
        assert 0.2 <= time.monotonic() - t0 < 5.0
        assert b.outstanding == 1

    def test_server_add_and_remove_replica_move_the_in_flight_room(
            self, wait_parked):
        # leases are the in-flight bound: a joining replica takes up to
        # INFLIGHT_PER_REPLICA batches of the backlog at once, and the
        # server keeps serving after it leaves
        gate = threading.Event()

        def gated(batch):
            gate.wait(timeout=30)
            return np.asarray(batch)[:, :1]

        a = Replica("a", InferenceSession(gated))
        server = Server(ReplicaPool([a]), max_batch_size=1,
                        max_wait_ms=1.0)
        collector = server.scheduler._collector
        try:
            futures = [server.submit(np.ones(4, np.float32))
                       for _ in range(6)]
            wait_parked(collector,
                        lambda: a.outstanding >= INFLIGHT_PER_REPLICA)
            assert server.queue.depth == 6 - INFLIGHT_PER_REPLICA
            b = Replica("b", InferenceSession(gated))
            server.add_replica(b)
            wait_parked(collector,
                        lambda: b.outstanding >= INFLIGHT_PER_REPLICA)
            assert a.outstanding == INFLIGHT_PER_REPLICA
            assert server.queue.depth == 6 - 2 * INFLIGHT_PER_REPLICA
            gate.set()
            for fut in futures:
                assert fut.result(timeout=30).shape == (1,)
            removed = server.remove_replica("b")
            removed.close()
            assert removed is b and b.outstanding == 0
            assert [r.name for r in server.pool] == ["a"]
            # the shrunk server still serves
            fut = server.submit(np.ones(4, np.float32))
            assert fut.result(timeout=30).shape == (1,)
        finally:
            gate.set()
            server.close()

    def test_server_build_pulls_worker_slots_from_config(self, worker):
        config = SessionConfig(
            workers=(format_address(worker.address),)
        )
        x = _samples(6)
        direct = _direct("ode_botnet", x)
        server = Server.build("ode_botnet", "tiny", 1, seed=0,
                              config=config, max_batch_size=4,
                              max_wait_ms=10.0)
        try:
            # 1 local replica + the worker's 2 advertised slots
            assert len(server.pool) == 3
            remote = [r for r in server.pool
                      if isinstance(r, RemoteReplica)]
            assert len(remote) == 2
            futures = [server.submit(xi) for xi in x]
            rows = np.stack([f.result(timeout=60) for f in futures])
            np.testing.assert_allclose(rows, direct, rtol=1e-12,
                                       atol=1e-9)
            report = server.metrics_report()
            assert format_address(worker.address) in report
        finally:
            server.close()


# ----------------------------------------------------------------------
# autoscaler decisions (pure) and application (sockets)
# ----------------------------------------------------------------------
class _FakePool(list):
    pass


class _FakeServer:
    def __init__(self, n):
        self.pool = _FakePool(range(n))


def _metrics(p99_ms, depth=0, capacity=10):
    return {"aggregate": {"p99_ms": p99_ms},
            "queue": {"depth": depth, "capacity": capacity}}


class TestAutoscaler:
    def _scaler(self, n=2, **kw):
        kw.setdefault("min_replicas", 1)
        kw.setdefault("max_replicas", 4)
        return Autoscaler(_FakeServer(n), ["127.0.0.1:1"], **kw)

    def test_holds_with_no_traffic(self):
        decision = self._scaler().evaluate(_metrics(float("nan")))
        assert decision["action"] == "hold"
        assert "no traffic" in decision["reason"]

    def test_scales_up_when_hot(self):
        decision = self._scaler().evaluate(_metrics(80.0))
        assert decision["action"] == "up"

    def test_scales_up_on_deep_queue_alone(self):
        decision = self._scaler().evaluate(
            _metrics(float("nan"), depth=8, capacity=10)
        )
        assert decision["action"] == "up"

    def test_holds_when_tail_is_compute_dominated(self):
        decision = self._scaler().evaluate(
            _metrics(80.0), {"dominant": "replica_run"}
        )
        assert decision["action"] == "hold"
        assert "replica_run" in decision["reason"]

    def test_scales_up_when_tail_blames_queueing(self):
        decision = self._scaler().evaluate(
            _metrics(80.0), {"dominant": "queue"}
        )
        assert decision["action"] == "up"

    def test_holds_at_max_replicas(self):
        decision = self._scaler(n=4).evaluate(_metrics(80.0))
        assert decision["action"] == "hold"
        assert "max_replicas" in decision["reason"]

    def test_cold_with_nothing_autoscaled_holds(self):
        decision = self._scaler(n=2).evaluate(_metrics(1.0))
        assert decision["action"] == "hold"
        assert "nothing autoscaled" in decision["reason"]

    def test_cold_with_autoscaled_replicas_drains(self):
        scaler = self._scaler(n=2)
        with scaler._lock:
            scaler._remotes.append(object())
        decision = scaler.evaluate(_metrics(1.0))
        assert decision["action"] == "down"

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError, match="max_replicas"):
            self._scaler(min_replicas=4, max_replicas=2)
        with pytest.raises(ValueError, match="at least one worker"):
            Autoscaler(_FakeServer(1), [])

    def test_scale_up_and_down_round_trip(self, worker):
        pool = ReplicaPool([Replica("local", _echo_session())])
        with Server(pool, max_batch_size=2, max_wait_ms=1.0) as server:
            scaler = Autoscaler(
                server, [format_address(worker.address)],
                min_replicas=1, max_replicas=3, timeout_s=30,
            )
            name = scaler.scale_up()
            assert name is not None
            assert len(server.pool) == 2
            assert scaler.snapshot()["autoscaled_replicas"] == [name]
            assert scaler.scale_down() == name
            assert len(server.pool) == 1
            assert scaler.snapshot()["autoscaled_replicas"] == []
            scaler.close()

    def test_session_config_validates_cluster_fields(self):
        config = SessionConfig(workers=("127.0.0.1:9000",),
                               autoscale=(1, 4))
        assert config.workers == ("127.0.0.1:9000",)
        assert config.autoscale == (1, 4)
        with pytest.raises(ValueError):
            SessionConfig(workers=("not-an-address",))
        with pytest.raises(ValueError, match="workers"):
            SessionConfig(autoscale=(1, 4))
        with pytest.raises(ValueError):
            SessionConfig(workers=("127.0.0.1:9000",), autoscale=(4, 1))


# ----------------------------------------------------------------------
# the overload soak: 3x load across two workers, nothing hangs
# ----------------------------------------------------------------------
class TestClusterSoak:
    def test_3x_overload_across_two_workers_bounded_and_hang_free(self):
        capacity = 16
        with ClusterWorker.build("ode_botnet", "tiny", 1,
                                 mode="thread") as w1, \
                ClusterWorker.build("ode_botnet", "tiny", 1,
                                    mode="thread") as w2:
            w1.start()
            w2.start()
            config = SessionConfig(workers=(
                format_address(w1.address), format_address(w2.address),
            ))
            server = Server.build(
                "ode_botnet", "tiny", 1, seed=0, config=config,
                queue_capacity=capacity, max_batch_size=8,
                max_wait_ms=2.0, shed_policy="reject",
            )
            try:
                assert len(server.pool) == 3  # 1 local + 2 remote slots
                per_replica = calibrate_rate(server, _samples(1)[0],
                                             seed=0)
                offsets = arrival_offsets(3.0 * per_replica, 1.5, seed=0)
                report = run_load(server, _samples(8), offsets, seed=0)
                queue_snap = server.metrics()["queue"]
            finally:
                server.close()
        assert report.hung == 0, "cluster serving hung a future"
        assert report.errors == 0, report.error_examples
        assert report.completed > 0
        assert queue_snap["high_water"] <= capacity, \
            "admission bound did not hold under 3x cluster overload"

    def test_remote_replicas_actually_share_the_load(self):
        with ClusterWorker.build("ode_botnet", "tiny", 2,
                                 mode="thread") as w:
            w.start()
            config = SessionConfig(workers=(format_address(w.address),))
            server = Server.build(
                "ode_botnet", "tiny", 1, seed=0, config=config,
                max_batch_size=4, max_wait_ms=2.0,
            )
            try:
                futures = [server.submit(x) for x in _samples(24, seed=3)]
                for fut in futures:
                    fut.result(timeout=60)
                remote_dispatches = sum(
                    r.dispatches for r in server.pool
                    if isinstance(r, RemoteReplica)
                )
            finally:
                server.close()
        assert remote_dispatches > 0, \
            "no batch was ever routed to a remote replica"


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------
def _repo_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestCLI:
    def test_worker_parser_documents_its_flags(self):
        from repro.cluster.worker import build_parser

        text = build_parser().format_help()
        for flag in ("--listen", "--model", "--replicas", "--mode",
                     "--tiers", "--timeout-s"):
            assert flag in text, flag
        assert "CLUSTER_WORKER_READY" in text

    def test_serve_cli_documents_cluster_flags(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.serve", "--help"],
            capture_output=True, text=True, timeout=120,
            env=_repo_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert "--workers" in proc.stdout
        assert "--autoscale" in proc.stdout
        assert "MIN:MAX" in proc.stdout

    def test_worker_subprocess_ready_line_and_round_trip(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cluster.worker",
             "--listen", "127.0.0.1:0", "--replicas", "1",
             "--mode", "thread"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=_repo_env(),
        )
        try:
            line = proc.stdout.readline().strip()
            assert line.startswith("CLUSTER_WORKER_READY "), line
            address = parse_address(line.split()[1])
            assert f"pid={proc.pid}" in line
            assert "replicas=1" in line
            client = WorkerClient.connect(address, connect_timeout_s=30)
            try:
                assert client.request("ping", timeout_s=30) == "pong"
                x = _samples(1)
                out, _spans = client.request(
                    "run", {"tier": None, "samples": x,
                            "want_trace": False},
                    timeout_s=60,
                )
                np.testing.assert_array_equal(
                    out, _direct("ode_botnet", x)
                )
            finally:
                client.close()
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)
