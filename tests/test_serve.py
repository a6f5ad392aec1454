"""repro.serve: admission control, scheduling, replicas, loadgen.

The serving layer's contract, pinned:

* responses are bit-exact with a direct ``InferenceSession.predict``
  (the layer reschedules computation, never changes it);
* every submitted future resolves — to a row or to a *typed* error —
  under overload, deadlines, replica failure and shutdown alike;
* the admission queue is strictly bounded under every shedding policy;
* priority classes drain high-first; deadlines fail fast;
* the load harness is deterministic given a seed.

Fast paths use stub sessions (instant callables wrapped in
``InferenceSession``); bit-exactness uses the real tiny proposed model.
"""

import threading
import time

import numpy as np
import pytest

from repro.models import build_model, reduced_profile
from repro.models.registry import PROFILES
from repro.runtime import InferenceSession, SessionConfig, SessionStats
from repro.serve import (
    AdmissionQueue,
    DeadlineExceeded,
    Priority,
    ProcessReplica,
    QueueFull,
    Replica,
    ReplicaPool,
    ReplicaUnavailable,
    Request,
    Server,
    ServerStopped,
    arrival_offsets,
    pick_priorities,
    render_report,
    run_load,
)
from repro.serve.admission import FILL_WINDOW
from repro.serve.pool import INFLIGHT_PER_REPLICA


def _echo_session(scale=1.0, delay_s=0.0):
    """A stub InferenceSession: returns scale * row-sum, optional delay."""

    def fn(batch):
        if delay_s:
            time.sleep(delay_s)
        batch = np.asarray(batch)
        return scale * batch.reshape(batch.shape[0], -1).sum(axis=1)[:, None]

    return InferenceSession(fn)


def _gated_session(gate):
    """A stub InferenceSession whose every batch blocks until *gate*
    is set."""

    def fn(batch):
        gate.wait(timeout=30)
        return np.asarray(batch)[:, :1]

    return InferenceSession(fn)


def _failing_session(exc=None):
    def fn(batch):
        raise exc or RuntimeError("replica exploded")

    return InferenceSession(fn)


def _samples(n=8, seed=0, shape=(4,)):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, *shape)).astype(np.float32)


# ----------------------------------------------------------------------
class TestRequest:
    def test_resolve_and_fail_report_delivery(self):
        req = Request(np.zeros(2, np.float32))
        assert req.resolve(1.0) is True
        assert req.resolve(2.0) is False  # already resolved: no-op
        assert req.fail(RuntimeError("late")) is False
        assert req.future.result(timeout=1) == 1.0

    def test_cancelled_future_is_a_noop_not_an_error(self):
        req = Request(np.zeros(2, np.float32))
        assert req.future.cancel()
        assert req.resolve(1.0) is False
        assert req.fail(RuntimeError("late")) is False
        assert req.future.cancelled()


# ----------------------------------------------------------------------
class TestAdmissionQueue:
    def _request(self, q, priority=Priority.NORMAL, deadline_ms=None):
        return Request(np.zeros(2, np.float32), priority=priority,
                       deadline_ms=deadline_ms, seq=q.next_seq())

    def test_reject_newest_bounds_queue(self):
        q = AdmissionQueue(2, "reject")
        first = [self._request(q) for _ in range(2)]
        for req in first:
            assert q.offer(req)
        extra = self._request(q)
        assert not q.offer(extra)
        with pytest.raises(QueueFull):
            extra.future.result(timeout=1)
        assert q.depth == 2
        snap = q.snapshot()
        assert snap["shed_incoming"] == 1 and snap["high_water"] == 2

    def test_reject_oldest_evicts_fifo_victim(self):
        q = AdmissionQueue(2, "reject-oldest")
        oldest = self._request(q)
        second = self._request(q)
        q.offer(oldest)
        q.offer(second)
        newest = self._request(q)
        assert q.offer(newest)
        with pytest.raises(QueueFull):
            oldest.future.result(timeout=1)
        assert q.depth == 2
        assert q.snapshot()["shed_evicted"] == 1

    def test_reject_oldest_never_evicts_higher_priority(self):
        q = AdmissionQueue(1, "reject-oldest")
        vip = self._request(q, priority=Priority.HIGH)
        q.offer(vip)
        low = self._request(q, priority=Priority.LOW)
        assert not q.offer(low)
        with pytest.raises(QueueFull):
            low.future.result(timeout=1)
        assert not vip.future.done()

    def test_degrade_flags_overflow_then_hard_caps(self):
        q = AdmissionQueue(2, "degrade", degrade_headroom=2)
        reqs = [self._request(q) for _ in range(5)]
        admitted = [q.offer(r) for r in reqs]
        assert admitted == [True, True, True, True, False]
        assert [r.tier is not None for r in reqs[:4]] == [
            False, False, True, True]
        with pytest.raises(QueueFull):
            reqs[4].future.result(timeout=1)
        snap = q.snapshot()
        assert snap["degraded_admissions"] == 2
        assert snap["depth"] == 4  # bounded at capacity + headroom

    def test_next_batch_drains_high_priority_first(self):
        q = AdmissionQueue(8)
        low = self._request(q, priority=Priority.LOW)
        normal = self._request(q, priority=Priority.NORMAL)
        high = self._request(q, priority=Priority.HIGH)
        for req in (low, normal, high):
            q.offer(req)
        batch = q.next_batch(3, max_wait_s=0.01)
        assert [r.priority for r in batch] == [
            Priority.HIGH, Priority.NORMAL, Priority.LOW,
        ]

    def test_offer_after_close_fails_typed(self):
        q = AdmissionQueue(2)
        q.close()
        req = self._request(q)
        assert not q.offer(req)
        with pytest.raises(ServerStopped):
            req.future.result(timeout=1)
        assert q.next_batch(4, max_wait_s=0.01) == []

    def _pop_batches(self, q, size):
        """Pop FILL_WINDOW batches of *size* queued requests, no wait."""
        for _ in range(FILL_WINDOW):
            for _ in range(size):
                q.offer(self._request(q))
            assert len(q.next_batch(8, max_wait_s=0.0)) == size

    def test_fresh_queue_waits_out_max_wait(self):
        q = AdmissionQueue(16)
        q.offer(self._request(q))
        t0 = time.perf_counter()
        assert len(q.next_batch(8, max_wait_s=0.2)) == 1
        assert time.perf_counter() - t0 >= 0.2

    def test_lone_request_skips_the_wait_after_single_batches(self):
        q = AdmissionQueue(16)
        self._pop_batches(q, 1)
        q.offer(self._request(q))
        t0 = time.perf_counter()
        assert len(q.next_batch(8, max_wait_s=1.0)) == 1
        assert time.perf_counter() - t0 < 0.2

    def test_partial_batch_waits_after_full_batches(self):
        # a load that filled a recent batch (saturate's closed loop)
        # keeps waiting for full batches
        q = AdmissionQueue(16)
        self._pop_batches(q, 8)
        for _ in range(3):
            q.offer(self._request(q))
        t0 = time.perf_counter()
        assert len(q.next_batch(8, max_wait_s=0.2)) == 3
        assert time.perf_counter() - t0 >= 0.2

    def test_queued_requests_join_a_batch_past_its_fill(self):
        # growth needs no learning: at fill 1 everything already queued
        # still leaves in one batch, and at once
        q = AdmissionQueue(16)
        self._pop_batches(q, 1)
        for _ in range(5):
            q.offer(self._request(q))
        t0 = time.perf_counter()
        assert len(q.next_batch(8, max_wait_s=1.0)) == 5
        assert time.perf_counter() - t0 < 0.2


# ----------------------------------------------------------------------
class TestReplicaPool:
    def test_least_outstanding_routing(self):
        pool = ReplicaPool([
            Replica("a", _echo_session()),
            Replica("b", _echo_session()),
        ])
        a = pool.acquire()
        b = pool.acquire()
        assert {a.name, b.name} == {"a", "b"}  # spread, not pile-up
        pool.release(a)
        assert pool.acquire().name == a.name  # the idle one again

    def test_unhealthy_replica_leaves_routing(self):
        bad = Replica("bad", _failing_session(), unhealthy_after=2)
        good = Replica("good", _echo_session())
        pool = ReplicaPool([bad, good])
        x = _samples(2)
        for _ in range(2):
            with pytest.raises(RuntimeError):
                bad.run(x)
        assert not bad.healthy
        assert pool.acquire().name == "good"
        health = pool.health()
        assert health["bad"]["consecutive_failures"] == 2
        pool.revive("bad")
        assert pool.health()["bad"]["healthy"]

    def test_all_unhealthy_raises_typed(self):
        replica = Replica("r0", _failing_session(), unhealthy_after=1)
        pool = ReplicaPool([replica])
        with pytest.raises(RuntimeError):
            replica.run(_samples(1))
        with pytest.raises(ReplicaUnavailable):
            pool.acquire()

    def test_wait_for_room_waits_on_leases_not_on_sick_replicas(
            self, wait_parked):
        a = Replica("a", _echo_session())
        pool = ReplicaPool([a])
        for _ in range(INFLIGHT_PER_REPLICA):
            pool.acquire()
        waiter = threading.Thread(target=pool.wait_for_room)
        waiter.start()
        wait_parked(waiter, lambda: True)  # full: it waits
        pool.release(a)
        waiter.join(timeout=5)
        assert not waiter.is_alive()
        pool.acquire()  # full again
        a.healthy = False
        pool.wait_for_room()  # nothing healthy to wait for: returns
        with pytest.raises(ReplicaUnavailable):
            pool.acquire()

    def test_build_shares_weights_and_is_bit_exact(self):
        pool = ReplicaPool.build("ode_botnet", "tiny", 2, seed=0)
        x = _samples(3, shape=(3, 32, 32))
        direct = InferenceSession(
            build_model("ode_botnet", profile="tiny", seed=0,
                        inference=True)
        ).predict_batch(x)
        for replica in pool:
            assert np.array_equal(replica.run(x), direct)

    def test_degraded_session_reuses_weights(self):
        pool = ReplicaPool.build("ode_botnet", "tiny", 1, seed=0,
                                 tiers=("reduced",))
        replica = pool.replicas[0]
        x = _samples(2, shape=(3, 32, 32))
        full = replica.run(x)
        degraded = replica.run(x, tier="reduced")
        reference = InferenceSession(
            build_model("ode_botnet", profile=reduced_profile("tiny"),
                        seed=0, inference=True)
        ).predict_batch(x)
        assert np.array_equal(degraded, reference)
        assert full.shape == degraded.shape
        assert replica.degraded_dispatches == 1

    def test_merged_stats_uses_merge(self):
        pool = ReplicaPool([
            Replica("a", _echo_session()),
            Replica("b", _echo_session()),
        ])
        pool.replicas[0].run(_samples(4))
        pool.replicas[1].run(_samples(2))
        merged = pool.merged_stats()
        assert isinstance(merged, SessionStats)
        assert merged.snapshot()["requests"] == 6

    def test_process_timeout_never_returns_stale_batch(self):
        # regression: a timed-out request leaves the worker's eventual
        # reply buffered in the socket.  The next run() must discard that
        # stale reply (matched by sequence id), not hand the previous
        # batch's outputs to the new batch's callers.
        def marker_sleep(batch):
            batch = np.asarray(batch)
            delay = float(batch.flat[0])
            if delay > 0:
                time.sleep(delay)
            return batch * 2.0

        replica = ProcessReplica(
            "p0", InferenceSession(marker_sleep), timeout_s=0.1,
        )
        try:
            slow = np.full((3, 2), 0.4, np.float32)  # sleeps 0.4 s
            with pytest.raises(TimeoutError):
                replica.run(slow)
            assert replica.consecutive_failures == 1
            replica.timeout_s = 30.0  # plenty for the retry leg
            fast = np.zeros((2, 2), np.float32)
            out = replica.run(fast)
            # the buggy path returned slow * 2 (3 rows of 0.8) here
            np.testing.assert_array_equal(out, fast * 2.0)
            assert replica.consecutive_failures == 0
        finally:
            replica.close()

    def test_process_mode_bit_exact_and_joins(self):
        pool = ReplicaPool.build("ode_botnet", "tiny", 1, seed=0,
                                 mode="process")
        x = _samples(2, shape=(3, 32, 32))
        direct = InferenceSession(
            build_model("ode_botnet", profile="tiny", seed=0,
                        inference=True)
        ).predict_batch(x)
        try:
            assert np.array_equal(pool.replicas[0].run(x), direct)
            assert pool.merged_stats().snapshot()["requests"] == 2
        finally:
            pool.close()
        assert not pool.replicas[0]._proc.is_alive()

    def test_process_pool_close_reaches_every_child(self):
        # the second fork inherits the parent's end of the first
        # replica's socketpair, so a plain close() of that end never
        # reaches the first child as EOF; only shutdown() does — and a
        # child that misses it holds close() for the 5 s join timeout
        pool = ReplicaPool([
            ProcessReplica(f"p{i}", _echo_session()) for i in range(2)
        ])
        x = _samples(2)
        for replica in pool:
            replica.run(x)
        start = time.perf_counter()
        pool.close()
        assert time.perf_counter() - start < 2.0
        for replica in pool:
            assert not replica._proc.is_alive()
            assert replica._proc.exitcode == 0  # left on EOF, not killed

    def test_killed_child_fails_its_batch_typed_once_then_leaves_routing(
            self):
        import os
        import select
        import signal

        from repro.cluster import PeerGone

        started_r, started_w = os.pipe()

        def stall(batch):
            # runs in the child: report the batch size, then hang until
            # the test kills the process
            os.write(started_w, bytes([len(batch)]))
            time.sleep(60)

        replica = ProcessReplica("p0", InferenceSession(stall),
                                 unhealthy_after=2, timeout_s=30)
        os.close(started_w)
        try:
            with Server(ReplicaPool([replica]), max_batch_size=4,
                        max_wait_ms=500.0) as server:
                resolved = []
                batch = [server.submit(np.zeros(2, np.float32))
                         for _ in range(4)]
                for fut in batch:
                    fut.add_done_callback(resolved.append)
                ready, _, _ = select.select([started_r], [], [], 30)
                assert ready, "the child never started the batch"
                assert os.read(started_r, 1) == bytes([4])
                os.kill(replica._proc.pid, signal.SIGKILL)
                for fut in batch:
                    assert isinstance(fut.exception(timeout=10), PeerGone)
                assert len(resolved) == 4  # each future resolved once
                deadline = time.monotonic() + 5
                while (server.scheduler.snapshot()["failed"] < 4
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
                assert server.scheduler.snapshot()["failed"] == 4
                assert replica.healthy  # one failure of two so far
                # the dead channel fails fast and typed, then the
                # replica leaves routing
                second = server.submit(np.zeros(2, np.float32))
                assert isinstance(second.exception(timeout=10), PeerGone)
                assert not replica.healthy
                third = server.submit(np.zeros(2, np.float32))
                assert isinstance(third.exception(timeout=10),
                                  ReplicaUnavailable)
        finally:
            os.close(started_r)
            replica.close()
        assert not replica._proc.is_alive()


# ----------------------------------------------------------------------
class TestServer:
    def test_bit_exact_with_direct_session(self):
        x = _samples(6, shape=(3, 32, 32))
        direct = InferenceSession(
            build_model("ode_botnet", profile="tiny", seed=0,
                        inference=True)
        ).predict_batch(x)
        with Server.build("ode_botnet", "tiny", 2, seed=0,
                          max_batch_size=6, max_wait_ms=50.0) as server:
            futures = [server.submit(xi) for xi in x]
            rows = np.stack([f.result(timeout=60) for f in futures])
        for row, ref in zip(rows, direct):
            np.testing.assert_allclose(row, ref, rtol=1e-12, atol=1e-9)

    def test_deadline_fails_fast_without_running_model(self):
        ran = []

        def slow(batch):
            ran.append(len(batch))
            time.sleep(0.2)
            return np.zeros((len(batch), 1), np.float32)

        pool = ReplicaPool([Replica("r0", InferenceSession(slow))])
        with Server(pool, max_batch_size=1, max_wait_ms=0.5) as server:
            blocker = server.submit(np.zeros(2, np.float32))
            fut = server.submit(np.zeros(2, np.float32), deadline_ms=20.0)
            with pytest.raises(DeadlineExceeded) as err:
                fut.result(timeout=30)
            assert err.value.waited_ms >= 20.0
            blocker.result(timeout=30)
        assert len(ran) == 1  # the expired request never reached a replica

    @pytest.mark.parametrize("wait_ms", [float("inf"), float("nan"), -1.0])
    def test_non_finite_or_negative_wait_is_rejected(self, wait_ms):
        # an infinite wait killed the collector thread (Condition.wait
        # overflowed) and stranded the popped request's future
        pool = ReplicaPool([Replica("r0", _echo_session())])
        with pytest.raises(ValueError, match="max_wait_ms"):
            Server(pool, max_wait_ms=wait_ms)

    def test_lone_caller_stops_waiting_for_batchmates(self):
        pool = ReplicaPool([Replica("r0", _echo_session())])
        x = np.ones(2, np.float32)
        with Server(pool, max_batch_size=8, max_wait_ms=200.0) as server:
            for _ in range(FILL_WINDOW):  # each waits out the 200 ms
                server.predict(x, timeout=30)
            for _ in range(5):
                t0 = time.perf_counter()
                assert server.predict(x, timeout=30) == pytest.approx(2.0)
                assert time.perf_counter() - t0 < 0.1

    def test_expired_on_submit_fails_immediately(self):
        with Server(ReplicaPool([Replica("r0", _echo_session())])) as server:
            fut = server.submit(np.zeros(2, np.float32), deadline_ms=0.0)
            with pytest.raises(DeadlineExceeded):
                fut.result(timeout=1)

    def test_priority_drains_high_first(self):
        release = threading.Event()
        order = []

        def gated(batch):
            release.wait(timeout=30)
            return np.asarray(batch)[:, :1]

        pool = ReplicaPool([Replica("r0", InferenceSession(gated))])
        with Server(pool, max_batch_size=1, max_wait_ms=0.1) as server:
            blocker = server.submit(np.zeros(2, np.float32))
            time.sleep(0.05)  # let the blocker occupy the only replica
            low = server.submit(np.zeros(2, np.float32),
                                priority=Priority.LOW)
            high = server.submit(np.zeros(2, np.float32),
                                 priority=Priority.HIGH)
            low.add_done_callback(lambda f: order.append("low"))
            high.add_done_callback(lambda f: order.append("high"))
            release.set()
            low.result(timeout=30)
            high.result(timeout=30)
        assert order[0] == "high"

    def test_unhealthy_replica_leaves_the_backlog_in_the_queue(
            self, wait_parked):
        # one of two replicas is sick: the healthy one carries at most
        # INFLIGHT_PER_REPLICA batches and the rest of the backlog
        # stays in the bounded, shed-policed admission queue
        gate = threading.Event()
        a = Replica("a", _gated_session(gate))
        b = Replica("b", _failing_session(), unhealthy_after=1)
        with pytest.raises(RuntimeError):
            b.run(_samples(1))
        assert not b.healthy
        server = Server(ReplicaPool([a, b]), max_batch_size=2,
                        max_wait_ms=50.0)
        try:
            futures = [server.submit(np.zeros(2, np.float32))
                       for _ in range(20)]
            wait_parked(server.scheduler._collector,
                        lambda: a.outstanding >= INFLIGHT_PER_REPLICA)
            assert a.outstanding == INFLIGHT_PER_REPLICA
            assert b.outstanding == 0
            assert server.queue.depth >= 20 - 2 * INFLIGHT_PER_REPLICA
            gate.set()
            for fut in futures:
                assert fut.result(timeout=30).shape == (1,)
        finally:
            gate.set()
            server.close()
        assert b.dispatches == 0

    def test_replica_failure_propagates_then_health_reports(self):
        pool = ReplicaPool(
            [Replica("r0", _failing_session(), unhealthy_after=1)]
        )
        with Server(pool, max_batch_size=2, max_wait_ms=0.5) as server:
            fut = server.submit(np.zeros(2, np.float32))
            with pytest.raises(RuntimeError, match="replica exploded"):
                fut.result(timeout=30)
            deadline = time.time() + 5
            while server.health()["ok"] and time.time() < deadline:
                time.sleep(0.01)
            health = server.health()
            assert not health["ok"]
            # subsequent submits fail typed, not hang
            fut = server.submit(np.zeros(2, np.float32))
            with pytest.raises(ReplicaUnavailable):
                fut.result(timeout=30)

    def test_degrade_policy_serves_overflow_degraded(self):
        full = Replica("r0", _echo_session(scale=1.0, delay_s=0.05),
                       tier_sessions={"reduced": _echo_session(scale=-1.0)})
        pool = ReplicaPool([full])
        with Server(pool, max_batch_size=1, max_wait_ms=0.1,
                    queue_capacity=1, shed_policy="degrade",
                    degrade_headroom=4) as server:
            x = np.ones(2, np.float32)
            futures = [server.submit(x) for _ in range(5)]
            rows = [f.result(timeout=30) for f in futures]
        signs = sorted(np.sign(row.sum()) for row in rows)
        assert signs[0] == -1.0  # at least one ran on the degraded session
        assert signs[-1] == 1.0  # and at least one at full quality
        assert server.scheduler.snapshot()["degraded_dispatched"] >= 1

    def test_close_drain_serves_queued_requests(self):
        pool = ReplicaPool([Replica("r0", _echo_session(delay_s=0.02))])
        server = Server(pool, max_batch_size=4, max_wait_ms=0.5)
        futures = [server.submit(np.full(2, i, np.float32))
                   for i in range(8)]
        server.close(drain=True)
        rows = [f.result(timeout=1) for f in futures]  # already resolved
        assert len(rows) == 8
        fut = server.submit(np.zeros(2, np.float32))
        with pytest.raises(ServerStopped):
            fut.result(timeout=1)

    def test_close_no_drain_fails_queued_typed(self):
        release = threading.Event()

        def gated(batch):
            release.wait(timeout=30)
            return np.asarray(batch)[:, :1]

        pool = ReplicaPool([Replica("r0", InferenceSession(gated))])
        server = Server(pool, max_batch_size=1, max_wait_ms=0.1)
        blocker = server.submit(np.zeros(2, np.float32))
        time.sleep(0.05)
        queued = [server.submit(np.zeros(2, np.float32)) for _ in range(4)]
        closer = threading.Thread(target=server.close,
                                  kwargs={"drain": False})
        closer.start()
        time.sleep(0.05)
        release.set()
        closer.join(timeout=30)
        assert not closer.is_alive()
        blocker.result(timeout=1)  # in-flight work still completes
        outcomes = []
        for fut in queued:
            try:
                fut.result(timeout=1)
                outcomes.append("ok")
            except ServerStopped:
                outcomes.append("stopped")
        # everything resolved; at least the tail was failed typed
        assert len(outcomes) == 4
        assert "stopped" in outcomes

    def test_submit_close_race_never_hangs_a_future(self):
        # three threads submit while close() runs: every future resolves,
        # to its row or to ServerStopped (a hung one fails result(timeout))
        x = np.ones(2, np.float32)
        for _ in range(5):  # repeat: the race window is narrow
            pool = ReplicaPool([Replica("r0", _echo_session())])
            server = Server(pool, max_batch_size=4, max_wait_ms=1.0)
            server.submit(x)
            outcomes = []
            lock = threading.Lock()

            def hammer():
                for _ in range(10):
                    fut = server.submit(x)
                    try:
                        outcome = bool(fut.result(timeout=30)
                                       == pytest.approx(2.0))
                    except ServerStopped:
                        outcome = "stopped"
                    with lock:
                        outcomes.append(outcome)

            threads = [threading.Thread(target=hammer) for _ in range(3)]
            for t in threads:
                t.start()
            server.close()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert len(outcomes) == 30
            assert all(o is True or o == "stopped" for o in outcomes)
            with pytest.raises(ServerStopped):
                server.submit(x).result(timeout=1)

    def test_bad_shape_batchmate_fails_whole_group_typed(self):
        # regression: np.stack over a mixed-shape micro-batch raised in
        # the executor thread where ThreadPoolExecutor swallowed it,
        # leaving every batchmate's future pending forever.  The whole
        # dispatch body is fenced now: everyone fails typed, nobody hangs.
        release = threading.Event()

        def gated(batch):
            release.wait(timeout=30)
            batch = np.asarray(batch)
            return batch.reshape(len(batch), -1).sum(axis=1)[:, None]

        pool = ReplicaPool([Replica("r0", InferenceSession(gated))])
        with Server(pool, max_batch_size=8, max_wait_ms=10.0) as server:
            blocker = server.submit(np.zeros(4, np.float32))
            time.sleep(0.05)  # blocker's batch closes, occupies the replica
            good = [server.submit(np.zeros(4, np.float32)) for _ in range(2)]
            bad = server.submit(np.zeros(3, np.float32))  # wrong shape
            release.set()
            blocker.result(timeout=30)
            for fut in (*good, bad):
                with pytest.raises(ValueError):
                    fut.result(timeout=30)
        assert server.scheduler.snapshot()["failed"] == 3

    def test_cancelled_future_does_not_strand_batchmates(self):
        # regression: Future.set_result on a caller-cancelled future
        # raised InvalidStateError mid-resolve-loop, leaving the rest of
        # the batch unresolved
        release = threading.Event()

        def gated(batch):
            release.wait(timeout=30)
            batch = np.asarray(batch)
            return batch.reshape(len(batch), -1).sum(axis=1)[:, None]

        pool = ReplicaPool([Replica("r0", InferenceSession(gated))])
        with Server(pool, max_batch_size=8, max_wait_ms=10.0) as server:
            blocker = server.submit(np.zeros(2, np.float32))
            time.sleep(0.05)  # blocker's batch closes, occupies the replica
            first = server.submit(np.ones(2, np.float32))
            victim = server.submit(np.ones(2, np.float32))
            last = server.submit(np.ones(2, np.float32))
            assert victim.cancel()  # still queued, so cancellable
            release.set()
            blocker.result(timeout=30)
            assert first.result(timeout=30) == pytest.approx(2.0)
            assert last.result(timeout=30) == pytest.approx(2.0)
            assert victim.cancelled()

    def test_metrics_snapshot_and_report(self):
        with Server.build("ode_botnet", "tiny", 2, seed=0) as server:
            x = _samples(4, shape=(3, 32, 32))
            for xi in x:
                server.predict(xi, timeout=60)
            snap = server.metrics()
            report = server.metrics_report()
        assert snap["aggregate"]["requests"] >= 4
        assert set(snap["replicas"]) == {"replica-0", "replica-1"}
        assert snap["queue"]["admitted"] >= 4
        assert snap["scheduler"]["completed"] >= 4
        assert "=== serve metrics ===" in report
        assert "replica-0" in report
        assert render_report(snap) == report


# ----------------------------------------------------------------------
class TestLoadgen:
    def test_arrival_offsets_deterministic_and_poisson_like(self):
        a = arrival_offsets(100.0, 2.0, seed=7)
        b = arrival_offsets(100.0, 2.0, seed=7)
        c = arrival_offsets(100.0, 2.0, seed=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.all(np.diff(a) > 0) and a[-1] < 2.0
        # ~100 Hz * 2 s = ~200 arrivals; loose 5-sigma style bound
        assert 120 < len(a) < 290

    def test_pick_priorities_deterministic(self):
        a = pick_priorities(50, seed=3)
        assert a == pick_priorities(50, seed=3)
        assert set(a) <= {Priority.LOW, Priority.NORMAL, Priority.HIGH}

    def test_run_load_classifies_everything(self):
        pool = ReplicaPool([Replica("r0", _echo_session(delay_s=0.005))])
        with Server(pool, max_batch_size=4, max_wait_ms=1.0,
                    queue_capacity=4, shed_policy="reject") as server:
            offsets = arrival_offsets(2000.0, 0.25, seed=5)
            report = run_load(server, _samples(8), offsets, seed=5,
                              deadline_ms=100.0)
        total = (report.completed + report.deadline_exceeded + report.shed
                 + report.stopped + report.unavailable + report.errors)
        assert total == report.offered == len(offsets)
        assert report.hung == 0
        assert report.errors == 0
        assert report.shed > 0  # 2000/s into a capacity-4 queue must shed
        assert "hung futures: 0" in report.summary()

    def test_overload_bounded_queue_zero_hangs(self):
        # the acceptance scenario: ~2x sustainable load, typed sheds,
        # queue never grows past its bound, every future resolves
        pool = ReplicaPool([Replica("r0", _echo_session(delay_s=0.002))])
        with Server(pool, max_batch_size=1, max_wait_ms=0.1,
                    queue_capacity=8, shed_policy="reject-oldest") as server:
            # capacity ~= 500/s; offer ~1000/s
            offsets = arrival_offsets(1000.0, 0.5, seed=11)
            report = run_load(server, _samples(8), offsets, seed=11)
            snap = server.metrics()
        assert report.hung == 0 and report.errors == 0
        assert snap["queue"]["high_water"] <= 8
        assert report.shed > 0
        assert report.completed > 0


# ----------------------------------------------------------------------
class TestRegistryReducedProfiles:
    def test_every_profile_has_reduced_variant(self):
        bases = [p for p in PROFILES if not p.endswith("-reduced")]
        for base in bases:
            red = reduced_profile(base)
            assert red in PROFILES
            full_steps = PROFILES[base]["odenet"]["steps"]
            assert PROFILES[red]["odenet"]["steps"] == max(1, full_steps // 2)
            assert PROFILES[red]["input_size"] == PROFILES[base]["input_size"]

    def test_reduced_profile_idempotent_and_validates(self):
        assert reduced_profile("tiny-reduced") == "tiny-reduced"
        with pytest.raises(ValueError):
            reduced_profile("nope")

    def test_reduced_model_accepts_full_state_dict(self):
        full = build_model("ode_botnet", profile="tiny", seed=0,
                           inference=True)
        red = build_model("ode_botnet", profile=reduced_profile("tiny"),
                          seed=1, pretrained_state=full.state_dict(),
                          inference=True)
        for (ka, va), (kb, vb) in zip(
            sorted(full.state_dict().items()),
            sorted(red.state_dict().items()),
        ):
            assert ka == kb
            assert np.array_equal(va, vb)


# ----------------------------------------------------------------------
class TestTierLadder:
    """The three-rung degrade ladder: band assignment, per-tier
    counters, shared weights, and static certification."""

    def _request(self, q):
        return Request(np.zeros(2, np.float32), seq=q.next_seq())

    def test_overflow_fills_bands_in_ladder_order(self):
        q = AdmissionQueue(2, "degrade", degrade_headroom=6)
        reqs = [self._request(q) for _ in range(8)]
        for r in reqs:
            assert q.offer(r)
        assert [r.tier for r in reqs] == [
            None, None, "reduced", "reduced", "int8", "int8", "int4", "int4",
        ]
        snap = q.snapshot()
        assert list(snap["tiers"]) == ["reduced", "int8", "int4"]
        assert snap["degraded_by_tier"] == {
            "reduced": 2, "int8": 2, "int4": 2,
        }
        assert snap["degraded_admissions"] == 6

    def test_uneven_headroom_biases_shallow_tiers(self):
        q = AdmissionQueue(1, "degrade", degrade_headroom=4)
        reqs = [self._request(q) for _ in range(5)]
        for r in reqs:
            assert q.offer(r)
        # 4 across 3 rungs: the extra slot goes to the shallowest tier
        assert [r.tier for r in reqs] == [
            None, "reduced", "reduced", "int8", "int4",
        ]

    def test_custom_single_rung_ladder(self):
        q = AdmissionQueue(1, "degrade", degrade_headroom=2,
                           tiers=("int8",))
        reqs = [self._request(q) for _ in range(3)]
        for r in reqs:
            assert q.offer(r)
        assert [r.tier for r in reqs] == [None, "int8", "int8"]
        assert not q.offer(self._request(q))  # hard cap still holds

    def test_resolve_ladder_forms(self):
        from repro.serve import DEFAULT_LADDER, TierSpec, resolve_ladder

        default = resolve_ladder(None)
        assert tuple(t.name for t in default) == DEFAULT_LADDER
        from_text = resolve_ladder("int8, int4")
        assert tuple(t.name for t in from_text) == ("int8", "int4")
        custom = TierSpec("half", qformat="16(8)-12(4)")
        mixed = resolve_ladder(["reduced", custom])
        assert mixed[1] is custom
        with pytest.raises(ValueError, match="unknown tier"):
            resolve_ladder("int2")
        with pytest.raises(ValueError, match="unique"):
            resolve_ladder(("int8", "int8"))
        with pytest.raises(ValueError, match="at least one"):
            resolve_ladder(())

    def test_replica_routes_tiers_and_counts(self):
        full = Replica(
            "r0", _echo_session(scale=1.0),
            tier_sessions={
                "reduced": _echo_session(scale=-1.0),
                "int8": _echo_session(scale=2.0),
            },
        )
        x = np.ones((1, 2), np.float32)
        assert full.run(x)[0, 0] == 2.0
        assert full.run(x, tier="reduced")[0, 0] == -2.0
        assert full.run(x, tier="int8")[0, 0] == 4.0
        # unknown tier falls back to the full session, counted as full
        assert full.run(x, tier="int4")[0, 0] == 2.0
        health = full.health()
        assert health["dispatches"] == 4
        assert health["degraded_dispatches"] == 2
        assert health["dispatches_by_tier"] == {"reduced": 1, "int8": 1}
        assert list(health["tiers"]) == ["reduced", "int8"]
        assert health["weights_version"] == 1
        full.refresh()
        assert full.health()["weights_version"] == 2

    def test_pool_build_ladder_shares_weights(self):
        pool = ReplicaPool.build(
            "ode_botnet", "tiny", 1, tiers=("reduced", "int8"),
            config=SessionConfig(backend="fused"),
        )
        replica = next(iter(pool))
        assert set(replica.tier_sessions) == {"reduced", "int8"}
        # every rung derives from the primary session's weight set
        from repro.compile import CompiledPlan

        assert replica.tier_sessions["reduced"].plan_kind == "compiled"
        assert replica.tier_sessions["int8"].plan_kind == "quantized"
        assert isinstance(
            replica.tier_sessions["int8"]._plan, CompiledPlan
        )
        x = _samples(n=2, shape=(3, 32, 32))
        full_out = replica.run(x)
        int8_out = replica.run(x, tier="int8")
        assert full_out.shape == int8_out.shape
        assert not np.array_equal(full_out, int8_out)

    def test_scheduler_groups_and_counts_by_tier(self):
        replica = Replica(
            "r0", _echo_session(scale=1.0, delay_s=0.02),
            tier_sessions={
                "reduced": _echo_session(scale=-1.0),
                "int8": _echo_session(scale=2.0),
                "int4": _echo_session(scale=4.0),
            },
        )
        with Server(ReplicaPool([replica]), max_batch_size=1,
                    max_wait_ms=0.1, queue_capacity=1,
                    shed_policy="degrade", degrade_headroom=6) as server:
            x = np.ones(2, np.float32)
            futures = [server.submit(x) for _ in range(7)]
            for f in futures:
                f.result(timeout=30)
            snap = server.scheduler.snapshot()
        by_tier = snap["dispatched_by_tier"]
        assert set(by_tier) <= {"full", "reduced", "int8", "int4"}
        assert by_tier["full"] >= 1
        assert sum(by_tier.values()) == 7
        assert snap["degraded_dispatched"] == 7 - by_tier["full"]
        report = render_report(server.metrics())
        assert "dispatched by tier" in report

    def test_tier_counters_count_the_executed_tier(self):
        # a replica without tier sessions runs every band at full
        # quality, so neither it nor the scheduler counts a degraded
        # dispatch however deep the queue admitted the requests
        gate = threading.Event()
        replica = Replica("r0", _gated_session(gate))
        server = Server(ReplicaPool([replica]), max_batch_size=1,
                        max_wait_ms=0.1, queue_capacity=2,
                        shed_policy="degrade", degrade_headroom=6)
        try:
            # the closed gate holds every lease, so the queue fills
            # through the degrade bands while these land
            futures = [server.submit(np.ones(2, np.float32))
                       for _ in range(12)]
            gate.set()
            served = 0
            for fut in futures:
                try:
                    fut.result(timeout=30)
                    served += 1
                except QueueFull:
                    pass
        finally:
            gate.set()
            server.close()
        assert server.queue.snapshot()["degraded_admissions"] > 0
        snap = server.scheduler.snapshot()
        assert snap["dispatched_by_tier"] == {"full": served}
        assert snap["degraded_dispatched"] == 0
        assert replica.degraded_dispatches == 0


class TestTierCertification:
    def test_default_ladder_certifies_clean(self):
        from repro.serve import certify_ladder, certify_tier, resolve_ladder

        reports = certify_ladder(None, "ode_botnet", "tiny")
        assert set(reports) == {"full", "reduced", "int8", "int4"}
        assert all(r["ok"] for r in reports.values())
        rung = certify_tier(resolve_ladder(None)[1], "ode_botnet", "tiny")
        assert rung["quantized"] and rung["qformat"] == "8(4)-8(4)"
        assert rung["blocking"] == []

    def test_wide_tier_fails_certification(self):
        from repro.serve import (
            TierCertificationError,
            TierSpec,
            certify_ladder,
            certify_tier,
        )

        wide = TierSpec("wide", qformat="32(16)-24(8)")
        report = certify_tier(wide, "ode_botnet", "tiny")
        assert not report["ok"]
        assert any("48-bit DSP" in d.message for d in report["blocking"])
        with pytest.raises(TierCertificationError) as exc_info:
            certify_ladder(("reduced", wide), "ode_botnet", "tiny")
        assert exc_info.value.tier == "wide"
        assert exc_info.value.diagnostics

    def test_server_build_certifies_and_escape_hatch(self):
        from repro.serve import TierCertificationError, TierSpec

        wide = TierSpec("wide", qformat="32(16)-24(8)")
        with pytest.raises(TierCertificationError):
            Server.build("ode_botnet", "tiny", 1, shed_policy="degrade",
                         tiers=("reduced", wide))
        server = Server.build("ode_botnet", "tiny", 1,
                              shed_policy="degrade", tiers=("reduced", wide),
                              certify=False)
        try:
            assert server.queue.tiers == ("reduced", "wide")
        finally:
            server.close()

    def test_three_rung_soak_bounded_and_attributed(self):
        server = Server.build(
            "ode_botnet", "tiny", 1, shed_policy="degrade",
            queue_capacity=2, degrade_headroom=6,
            max_batch_size=2, max_wait_ms=0.5,
        )
        try:
            size = PROFILES["tiny"]["input_size"]
            samples = _samples(n=8, shape=(3, size, size))
            offsets = arrival_offsets(rate_hz=400.0, duration_s=0.25, seed=3)
            report = run_load(server, samples, offsets, seed=3)
            metrics = server.metrics()
        finally:
            server.close()
        assert report.hung == 0 and report.errors == 0
        assert report.completed >= 1
        bound = server.queue.capacity + server.queue.degrade_headroom
        assert metrics["queue"]["high_water"] <= bound
        assert list(metrics["queue"]["tiers"]) == ["reduced", "int8", "int4"]
        assert set(metrics["queue"]["degraded_by_tier"]) == {
            "reduced", "int8", "int4",
        }
        by_tier = metrics["scheduler"]["dispatched_by_tier"]
        assert sum(by_tier.values()) == report.completed
