"""repro.adapt: streaming domain adaptation with hot weight swap.

The adaptation loop's contract, pinned:

* drift streams are deterministic given ``(n, schedule, seed)`` and a
  ``severity=0`` schedule is bit-identical to the clean stream;
* the tap is a bounded O(1) ring: overflow drops the *oldest* sample,
  draws are seeded and replayable;
* the online trainer moves exactly the adapted parameter subset — the
  frozen backbone (including BatchNorm running stats) stays bit-frozen;
* a publish moves *every* replica to the new weight generation, serving
  stays correct across the swap, and in-flight requests never hang;
* the controller wires it all to a live ``Server`` via
  ``SessionConfig(adapt=...)`` and labelled submits.
"""

import numpy as np
import pytest

from repro.adapt import (
    AdaptConfig,
    AdaptationController,
    DEFAULT_ADAPT_PREFIXES,
    OnlineTrainer,
    SampleTap,
    WeightPublisher,
    adapt_parameters,
)
from repro.data import DriftSchedule, make_drift_stream
from repro.models import build_model
from repro.runtime import InferenceSession, SessionConfig
from repro.serve import ReplicaPool, Server, run_load


def _stream(n=8, size=32, seed=0, schedule=None):
    return make_drift_stream(n, schedule, size=size, seed=seed)


# ----------------------------------------------------------------------
class TestDriftSchedule:
    def test_level_ramps_from_start_and_saturates(self):
        sched = DriftSchedule(kind="noise", severity=2.0, start=0.25,
                              ramp=0.5)
        np.testing.assert_allclose(
            sched.level([0.0, 0.25, 0.5, 0.75, 1.0]),
            [0.0, 0.0, 1.0, 2.0, 2.0],
        )

    def test_kind_validation(self):
        with pytest.raises(ValueError, match="unknown drift kind"):
            DriftSchedule(kind="wobble")
        with pytest.raises(ValueError, match="start"):
            DriftSchedule(start=1.5)
        with pytest.raises(ValueError, match="ramp"):
            DriftSchedule(ramp=0.0)

    def test_each_kind_only_moves_its_own_knob(self):
        t = np.array([1.0])
        rot = DriftSchedule(kind="rotation", severity=1.0)
        assert rot.angle_offset(t)[0] > 0
        assert rot.noise_sigma(t)[0] == 0
        noise = DriftSchedule(kind="noise", severity=1.0)
        assert noise.angle_offset(t)[0] == 0
        assert noise.noise_sigma(t)[0] > 0

    def test_prior_drift_tilts_toward_low_classes(self):
        sched = DriftSchedule(kind="prior", severity=1.0)
        w = sched.class_weights(np.array([1.0]))[0]
        assert w[0] > w[-1] * 2
        np.testing.assert_allclose(w.sum(), 1.0)
        # pre-drift the prior is uniform
        w0 = sched.class_weights(np.array([0.0]))[0]
        np.testing.assert_allclose(w0, 1.0 / len(w0))


class TestDriftStream:
    def test_deterministic_given_seed(self):
        a_img, a_lab, a_t = _stream(seed=3)
        b_img, b_lab, b_t = _stream(seed=3)
        np.testing.assert_array_equal(a_img, b_img)
        np.testing.assert_array_equal(a_lab, b_lab)
        np.testing.assert_array_equal(a_t, b_t)
        c_img, _, _ = _stream(seed=4)
        assert not np.array_equal(a_img, c_img)

    def test_zero_severity_matches_clean_stream(self):
        clean_img, clean_lab, _ = _stream(schedule=None)
        zero = DriftSchedule(kind="rotation", severity=0.0)
        img, lab, _ = _stream(schedule=zero)
        np.testing.assert_array_equal(clean_img, img)
        np.testing.assert_array_equal(clean_lab, lab)

    def test_rotation_moves_pixels_not_labels(self):
        sched = DriftSchedule(kind="rotation", severity=1.0, start=0.0,
                              ramp=0.5)
        clean_img, clean_lab, _ = _stream(n=6, schedule=None)
        img, lab, _ = _stream(n=6, schedule=sched)
        np.testing.assert_array_equal(clean_lab, lab)  # label-preserving
        assert not np.array_equal(clean_img[-1], img[-1])

    def test_shapes_and_timeline(self):
        img, lab, t = _stream(n=5, size=32)
        assert img.shape == (5, 3, 32, 32)
        assert lab.shape == (5,) and lab.dtype == np.int64
        np.testing.assert_allclose(t, np.linspace(0, 1, 5))


# ----------------------------------------------------------------------
class TestSampleTap:
    def test_offer_copies_and_len_tracks(self):
        tap = SampleTap(capacity=4)
        sample = np.ones((3, 2, 2), np.float32)
        tap.offer(sample, 1)
        sample[:] = 7.0  # caller mutates after the fact
        images, labels = tap.sample(1, np.random.default_rng(0))
        np.testing.assert_array_equal(images[0], 1.0)
        assert labels[0] == 1 and len(tap) == 1

    def test_overflow_drops_oldest(self):
        tap = SampleTap(capacity=2)
        for label in range(4):
            tap.offer(np.full((2,), label, np.float32), label)
        snap = tap.snapshot()
        assert snap == {"capacity": 2, "size": 2, "offered": 4,
                        "dropped": 2}
        images, labels = tap.sample(2, np.random.default_rng(0))
        assert set(labels.tolist()) == {2, 3}  # newest two survive
        np.testing.assert_array_equal(images.ravel(),
                                      np.repeat(sorted(labels), 2))

    def test_sample_is_seeded_and_bounded(self):
        tap = SampleTap(capacity=8)
        for label in range(5):
            tap.offer(np.zeros(2, np.float32), label)
        assert tap.sample(3, np.random.default_rng(1)) is not None
        a = tap.sample(3, np.random.default_rng(7))[1]
        b = tap.sample(3, np.random.default_rng(7))[1]
        np.testing.assert_array_equal(a, b)
        _, labels = tap.sample(99, np.random.default_rng(0))
        assert len(labels) == 5  # clamped to fill level

    def test_empty_tap_returns_none(self):
        tap = SampleTap(capacity=2)
        assert tap.sample(1, np.random.default_rng(0)) is None
        with pytest.raises(ValueError, match="capacity"):
            SampleTap(capacity=0)

    def test_draw_runs_outside_the_tap_lock(self):
        """The caller's generator takes its own lock, so the tap must
        not hold its lock while it draws."""
        tap = SampleTap(capacity=4)
        for label in range(6):  # wrap the ring
            tap.offer(np.full((2,), label, np.float32), label)

        held = []

        class Checked:
            def __init__(self, seed):
                self._rng = np.random.default_rng(seed)

            def choice(self, *args, **kwargs):
                held.append(tap._lock.locked())
                return self._rng.choice(*args, **kwargs)

        images, labels = tap.sample(3, Checked(3))
        assert held == [False]
        # the same draw as before: index i is the i-th oldest sample,
        # and labels 2..5 survive the wrap
        idx = np.random.default_rng(3).choice(4, size=3, replace=False)
        np.testing.assert_array_equal(labels, 2 + idx)
        np.testing.assert_array_equal(images[:, 0], 2 + idx)


# ----------------------------------------------------------------------
class TestOnlineTrainer:
    def test_only_adapted_params_move(self):
        model = build_model("ode_botnet", profile="tiny", seed=0)
        frozen_before = {
            name: np.array(p.data)
            for name, p in model.named_parameters()
            if not name.startswith(DEFAULT_ADAPT_PREFIXES)
        }
        adapted_before = {
            name: np.array(p.data)
            for name, p in model.named_parameters()
            if name.startswith(DEFAULT_ADAPT_PREFIXES)
        }
        trainer = OnlineTrainer(model, lr=0.1, seed=0)
        images, labels, _ = _stream(n=4)
        trainer.step(images, labels)
        for name, p in model.named_parameters():
            if name in frozen_before:
                np.testing.assert_array_equal(
                    p.data, frozen_before[name],
                    err_msg=f"frozen param {name} moved",
                )
        assert any(
            not np.array_equal(model.state_dict()[name], before)
            for name, before in adapted_before.items()
        ), "no adapted parameter moved"

    def test_bn_running_stats_stay_frozen(self):
        model = build_model("ode_botnet", profile="tiny", seed=0)
        before = {
            name: np.array(value)
            for name, value in model.state_dict().items()
            if "running" in name
        }
        assert before, "expected BatchNorm running stats in state"
        trainer = OnlineTrainer(model, seed=0)
        images, labels, _ = _stream(n=4)
        trainer.step(images, labels)
        after = model.state_dict()
        for name, value in before.items():
            np.testing.assert_array_equal(after[name], value)

    def test_step_logs_and_history(self):
        model = build_model("ode_botnet", profile="tiny", seed=0)
        trainer = OnlineTrainer(model, seed=0)
        images, labels, _ = _stream(n=4)
        logs = trainer.step(images, labels)
        assert set(logs) >= {"loss", "accuracy", "batch", "step_seconds"}
        assert logs["batch"] == 4
        assert trainer.steps == 1
        assert trainer.history.steps[0][1]["loss"] == logs["loss"]
        assert trainer.history.series("loss") == [logs["loss"]]

    def test_step_from_tap(self):
        model = build_model("ode_botnet", profile="tiny", seed=0)
        trainer = OnlineTrainer(model, batch_size=2, seed=0)
        tap = SampleTap(capacity=8)
        assert trainer.step_from(tap) is None
        images, labels, _ = _stream(n=3)
        for img, lab in zip(images, labels):
            tap.offer(img, lab)
        logs = trainer.step_from(tap)
        assert logs is not None and logs["batch"] == 2

    def test_no_matching_prefix_raises(self):
        model = build_model("ode_botnet", profile="tiny", seed=0)
        with pytest.raises(ValueError, match="no parameter matches"):
            adapt_parameters(model, prefixes=("nonexistent.",))


# ----------------------------------------------------------------------
class TestAdaptConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="lr"):
            AdaptConfig(lr=0.0)
        with pytest.raises(ValueError, match="batch_size"):
            AdaptConfig(batch_size=0)
        with pytest.raises(ValueError, match="tap_capacity"):
            AdaptConfig(tap_capacity=4, batch_size=16)
        with pytest.raises(ValueError, match="prefixes"):
            AdaptConfig(prefixes=())

    def test_session_config_resolves_adapt(self):
        cfg = SessionConfig(adapt=True)
        assert isinstance(cfg.adapt, AdaptConfig)
        custom = AdaptConfig(lr=0.01)
        assert SessionConfig(adapt=custom).adapt is custom
        assert SessionConfig().adapt is None
        with pytest.raises(ValueError, match="adapt"):
            SessionConfig(adapt="yes")


# ----------------------------------------------------------------------
class TestWeightPublisher:
    @pytest.mark.parametrize("backend", ("reference", "fused"))
    def test_swap_moves_every_replica_and_serving_tracks(self, backend):
        """On ``fused`` the swap re-compiles each replica's plan through
        ``InferenceSession.refresh``; on ``reference`` it re-binds the
        module forward."""
        config = SessionConfig(backend=backend)
        pool = ReplicaPool.build("ode_botnet", "tiny", 2, seed=0,
                                 config=config)
        try:
            x = _stream(n=3)[0]
            before = pool.replicas[0].run(x)
            state = build_model("ode_botnet", profile="tiny",
                                seed=99).state_dict()
            publisher = WeightPublisher(pool)
            info = publisher.publish(state)
            assert info["replicas"] == 2
            assert {r.weights_version for r in pool} == {info["version"]}
            after = [r.run(x) for r in pool.replicas]
            # both replicas agree on the new generation's outputs...
            np.testing.assert_array_equal(after[0], after[1])
            # ...which differ from the old generation's...
            assert not np.array_equal(before, after[0])
            # ...and are bit-exact with a session built directly on it
            fresh = InferenceSession(
                build_model("ode_botnet", profile="tiny",
                            pretrained_state=state, inference=True),
                config=config,
            )
            assert pool.replicas[0].session.plan_kind == fresh.plan_kind
            np.testing.assert_array_equal(after[0], fresh.predict_batch(x))
            assert publisher.snapshot()["swaps"] == 1
        finally:
            pool.close()

    def test_shared_store_swap_bumps_once(self):
        pool = ReplicaPool.build("ode_botnet", "tiny", 2, seed=0)
        try:
            state = build_model("ode_botnet", profile="tiny",
                                seed=99).state_dict()
            info = WeightPublisher(pool).publish(state)
            assert pool.weight_store.version == info["version"] == 2
            views = pool.weight_store.arrays()
            for name, value in state.items():
                np.testing.assert_array_equal(views[name],
                                              np.asarray(value))
        finally:
            pool.close()

    def test_publish_moves_tier_sessions_without_store(self):
        """A pool built with no weight-store option still serves its
        degrade tiers from the store: a publish must move those
        sessions too, not just the primary (stale-tier swap bug)."""
        from repro.serve.tiers import BUILTIN_TIERS

        tiers = ("reduced", "int8")
        pool = ReplicaPool.build("ode_botnet", "tiny", 1, seed=0,
                                 tiers=tiers)
        try:
            x = _stream(n=2)[0]
            replica = pool.replicas[0]
            before = {t: replica.run(x, tier=t) for t in tiers}
            state = build_model("ode_botnet", profile="tiny",
                                seed=99).state_dict()
            WeightPublisher(pool).publish(state)
            for tier in tiers:
                after = replica.run(x, tier=tier)
                assert not np.array_equal(before[tier], after), tier
                # bit-exact with a session built directly on the new
                # generation: the tier genuinely serves the new weights
                expected = BUILTIN_TIERS[tier].build_session(
                    "ode_botnet", "tiny", state=state,
                ).predict_batch(x)
                np.testing.assert_array_equal(after, expected, err_msg=tier)
        finally:
            pool.close()

    def test_shared_store_publish_moves_tier_sessions(self):
        """The tier floats are adopted onto the store, so the one store
        write + refresh moves every rung of every replica, not just
        the primary."""
        from repro.serve.tiers import BUILTIN_TIERS

        tiers = ("reduced", "int8")
        pool = ReplicaPool.build("ode_botnet", "tiny", 2, seed=0,
                                 tiers=tiers)
        try:
            x = _stream(n=2)[0]
            before = {t: pool.replicas[0].run(x, tier=t) for t in tiers}
            state = build_model("ode_botnet", profile="tiny",
                                seed=99).state_dict()
            WeightPublisher(pool).publish(state)
            for tier in tiers:
                expected = BUILTIN_TIERS[tier].build_session(
                    "ode_botnet", "tiny", state=state,
                ).predict_batch(x)
                for replica in pool:
                    after = replica.run(x, tier=tier)
                    assert not np.array_equal(before[tier], after), tier
                    np.testing.assert_array_equal(after, expected,
                                                  err_msg=tier)
        finally:
            pool.close()

    def test_process_shared_store_publish_moves_forked_tiers(self):
        """Forked workers must re-derive quantized tier weights from
        the shared floats after a swap (the worker refresh op over the
        socketpair)."""
        from repro.serve.tiers import BUILTIN_TIERS

        pool = ReplicaPool.build("ode_botnet", "tiny", 1, seed=0,
                                 mode="process", tiers=("int8",))
        try:
            x = _stream(n=2)[0]
            replica = pool.replicas[0]
            before = replica.run(x, tier="int8")
            state = build_model("ode_botnet", profile="tiny",
                                seed=99).state_dict()
            info = WeightPublisher(pool).publish(state)
            assert replica.weights_version == info["version"]
            after = replica.run(x, tier="int8")
            assert not np.array_equal(before, after)
            expected = BUILTIN_TIERS["int8"].build_session(
                "ode_botnet", "tiny", state=state,
            ).predict_batch(x)
            np.testing.assert_array_equal(after, expected)
        finally:
            pool.close()

    def test_addressless_publishable_replicas_each_receive_state(self):
        """Publish-capable replicas without an address must not
        collapse onto one dedupe key — each gets the state itself."""

        class _Publishable:
            def __init__(self, name):
                self.name = name
                self.healthy = True
                self.outstanding = 0
                self.weights_version = 1
                self.published = []

            def publish(self, state):
                self.published.append(state)
                self.weights_version += 1
                return self.weights_version

            def close(self):
                pass

        a, b = _Publishable("a"), _Publishable("b")
        pool = ReplicaPool([a, b])
        info = WeightPublisher(pool).publish({"w": np.zeros(1)})
        assert len(a.published) == 1 and len(b.published) == 1
        assert info["replicas"] == 2

    def test_process_pool_hot_swaps_with_no_flag(self):
        """A process pool built with no option reads the pool's store,
        so one publish moves every forked replica, primary and tier."""
        from repro.serve.tiers import BUILTIN_TIERS

        pool = ReplicaPool.build("ode_botnet", "tiny", 2, mode="process",
                                 tiers=("int8",))
        try:
            x = _stream(n=2)[0]
            before = [r.run(x) for r in pool.replicas]
            state = build_model("ode_botnet", profile="tiny",
                                seed=99).state_dict()
            info = WeightPublisher(pool).publish(state)
            assert info["version"] == 2 and info["replicas"] == 2
            assert [r.weights_version for r in pool] == [2, 2]
            fresh = InferenceSession(build_model(
                "ode_botnet", profile="tiny", pretrained_state=state,
                inference=True,
            ))
            fresh_int8 = BUILTIN_TIERS["int8"].build_session(
                "ode_botnet", "tiny", state=state,
            )
            for replica, old in zip(pool.replicas, before):
                after = replica.run(x)
                assert not np.array_equal(old, after), replica.name
                np.testing.assert_array_equal(after,
                                              fresh.predict_batch(x))
                np.testing.assert_array_equal(
                    replica.run(x, tier="int8"),
                    fresh_int8.predict_batch(x),
                )
        finally:
            pool.close()

    def test_mixed_pool_moves_every_replica_exactly_once(self,
                                                         monkeypatch):
        """One built local replica plus both slots of a worker: the
        local store takes one write and one bump, the worker one
        ``publish`` op, and every replica answers on the new state."""
        from repro.cluster import ClusterWorker, connect_worker

        ops = []
        original = ClusterWorker._OPS["publish"]

        def counted(worker, payload):
            ops.append(payload)
            return original(worker, payload)

        monkeypatch.setitem(ClusterWorker._OPS, "publish", counted)
        local = SessionConfig(backend="compiled")
        with ClusterWorker.build("ode_botnet", "tiny", 2,
                                 mode="thread") as worker:
            worker.start()
            pool = ReplicaPool.build("ode_botnet", "tiny", 1, seed=0,
                                     config=local)
            try:
                for replica in connect_worker(worker.address,
                                              timeout_s=60):
                    pool.add(replica)
                assert len(pool) == 3
                state = build_model("ode_botnet", profile="tiny",
                                    seed=99).state_dict()
                info = WeightPublisher(pool).publish(state)
                assert len(ops) == 1
                assert pool.weight_store.version == 2
                assert worker.pool.weight_store.version == 2
                assert [r.weights_version for r in pool] == [2, 2, 2]
                assert info["version"] == 2 and info["replicas"] == 3
                x = _stream(n=2)[0]

                def fresh(backend):
                    return InferenceSession(build_model(
                        "ode_botnet", profile="tiny",
                        pretrained_state=state, inference=True,
                    ), config=SessionConfig(backend=backend)).predict_batch(x)

                mine, *slots = pool.replicas
                np.testing.assert_array_equal(mine.run(x),
                                              fresh(local.backend))
                served = fresh(worker.backend)  # the ambient backend
                for slot in slots:
                    np.testing.assert_array_equal(slot.run(x), served,
                                                  err_msg=slot.name)
            finally:
                pool.close()

    def test_mixed_pool_refresh_leaves_remote_slots_alone(self,
                                                         monkeypatch):
        """``refresh()`` moves only the replicas that read the pool's
        store: a worker's slots read the worker's store, so they get no
        ``refresh`` op and keep the worker's version."""
        from repro.cluster import ClusterWorker, connect_worker

        ops = []
        original = ClusterWorker._OPS["refresh"]

        def counted(worker, payload):
            ops.append(payload)
            return original(worker, payload)

        monkeypatch.setitem(ClusterWorker._OPS, "refresh", counted)
        with ClusterWorker.build("ode_botnet", "tiny", 2,
                                 mode="thread") as worker:
            worker.start()
            pool = ReplicaPool.build("ode_botnet", "tiny", 1, seed=0)
            try:
                for replica in connect_worker(worker.address,
                                              timeout_s=60):
                    pool.add(replica)
                pool.refresh()
                pool.refresh()
                assert ops == []
                assert worker.pool.weight_store.version == 1
                assert pool.weight_store.version == 3
                mine, *slots = pool.replicas
                assert mine.weights_version == 3
                assert [slot.weights_version for slot in slots] == [1, 1]
            finally:
                pool.close()

    def test_publish_to_a_storeless_pool_names_the_replica(self):
        """A hand-assembled pool has no store for its local replica to
        read: publish refuses before it writes anything."""
        from repro.serve import Replica

        net = build_model("ode_botnet", profile="tiny", seed=0,
                          inference=True)
        replica = Replica("lone", InferenceSession(net))
        pool = ReplicaPool([replica])
        weights = {n: p.data.copy() for n, p in net.named_parameters()}
        state = build_model("ode_botnet", profile="tiny",
                            seed=99).state_dict()
        with pytest.raises(ValueError, match="lone"):
            pool.publish(state)
        assert replica.weights_version == 1
        for name, param in net.named_parameters():
            np.testing.assert_array_equal(param.data, weights[name],
                                          err_msg=name)

    def test_swap_records_trace_span(self):
        from repro.trace import Tracer

        pool = ReplicaPool.build("ode_botnet", "tiny", 1, seed=0)
        tracer = Tracer()
        try:
            state = build_model("ode_botnet", profile="tiny",
                                seed=1).state_dict()
            WeightPublisher(pool, tracer=tracer).publish(state)
            spans = [s for s in tracer.spans()
                     if s.name == "weights.swap"]
            assert len(spans) == 1
            assert spans[0].attrs["version"] == 2
            assert spans[0].attrs["replicas"] == 1
        finally:
            pool.close()


# ----------------------------------------------------------------------
class TestAdaptationController:
    def test_requires_registry_build_info(self):
        from repro.runtime import InferenceSession
        from repro.serve import Replica

        pool = ReplicaPool([Replica("a", InferenceSession(lambda b: b))])
        with pytest.raises(ValueError, match="registry build info"):
            AdaptationController(pool)

    def test_step_and_publish_roundtrip(self):
        pool = ReplicaPool.build("ode_botnet", "tiny", 1, seed=0)
        try:
            config = AdaptConfig(batch_size=2, min_samples=2,
                                 tap_capacity=8, publish_every=1)
            controller = AdaptationController(pool, config=config)
            images, labels, _ = _stream(n=4)
            for img, lab in zip(images, labels):
                controller.tap.offer(img, lab)
            assert controller.step_once() is not None
            info = controller.publish()
            assert info["version"] == 2
            # the publish callback landed in the trainer's History
            assert controller.trainer.history.publishes[0][0] == 2
            snap = controller.snapshot()
            assert snap["trainer"]["steps"] == 1
            assert snap["publisher"]["swaps"] == 1
            assert snap["error"] is None
            controller.close()
        finally:
            pool.close()

    def test_server_build_wires_and_swaps_live(self):
        config = SessionConfig(adapt=AdaptConfig(
            batch_size=2, min_samples=2, tap_capacity=16,
            publish_every=1,
        ))
        server = Server.build("ode_botnet", "tiny", 1, config=config)
        try:
            assert server.adaptation is not None
            images, labels, _ = _stream(n=6)
            futs = [
                server.submit(img, label=lab)
                for img, lab in zip(images, labels)
            ]
            rows = [f.result(timeout=60) for f in futs]
            assert all(r is not None for r in rows)
            # labelled submits landed in the tap; wait for the
            # background loop to step and swap at least once
            deadline = 30.0
            import time as _time

            t0 = _time.perf_counter()
            while _time.perf_counter() - t0 < deadline:
                snap = server.metrics()["adaptation"]
                if snap["publisher"]["swaps"] >= 1:
                    break
                _time.sleep(0.02)
            assert snap["error"] is None
            assert snap["tap"]["offered"] == 6
            assert snap["publisher"]["swaps"] >= 1
            # serving still answers after the swap
            assert server.predict(images[0]) is not None
            assert "adaptation [running]" in server.metrics_report()
        finally:
            server.close()
        assert server.metrics()["adaptation"]["running"] is False

    def test_unlabelled_submits_bypass_the_tap(self):
        config = SessionConfig(adapt=True)
        server = Server.build("ode_botnet", "tiny", 1, config=config)
        try:
            server.predict(_stream(n=1)[0][0])
            assert server.metrics()["adaptation"]["tap"]["offered"] == 0
        finally:
            server.close()


# ----------------------------------------------------------------------
class TestLoadgenAccuracy:
    def test_labelled_run_records_outcomes_and_windows(self):
        server = Server.build("ode_botnet", "tiny", 1)
        try:
            images, labels, _ = _stream(n=10)
            offsets = np.linspace(0.0, 0.2, 10)
            report = run_load(server, images, offsets, seed=0,
                              labels=labels)
            assert report.completed == 10
            assert len(report.outcomes) == 10
            windows = report.accuracy_windows(windows=2)
            assert [w["evaluated"] for w in windows] == [5, 5]
            assert all(0.0 <= w["accuracy"] <= 1.0 for w in windows)
            assert 0.0 <= report.final_accuracy(0.5) <= 1.0
            assert "accuracy:" in report.summary()
        finally:
            server.close()

    def test_labels_must_align_with_samples(self):
        server = Server.build("ode_botnet", "tiny", 1)
        try:
            images = _stream(n=4)[0]
            with pytest.raises(ValueError, match="align"):
                run_load(server, images, np.zeros(4), seed=0,
                         labels=np.zeros(3, np.int64))
        finally:
            server.close()

    def test_unlabelled_report_has_no_accuracy_surface(self):
        from repro.serve.loadgen import LoadReport

        report = LoadReport(offered=4)
        assert report.accuracy_windows() == []
        assert np.isnan(report.final_accuracy())
        assert "accuracy:" not in report.summary()
