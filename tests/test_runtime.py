"""InferenceSession: the plan table, parity, statistics.

The runtime's contract is strict.  A session binds one plan at
construction — the oracle of the model's numeric domain under the
``reference`` kernel backend, its fast executor under any other — and
each plan keeps its parity contract: ``reference`` sessions match the
eval-mode training forward *bitwise* for every registry model
(adaptive solvers included) and *exactly* equal
``QuantizedODENetExecutor.run`` for quantized models; the compiled plan
agrees to 1e-6 and the compiled fixed-point plan bit for bit.  These
tests pin
that contract, the refresh path and the serving statistics.
"""

import numpy as np
import pytest

from repro import kernels
from repro.compile import CompileError, CompiledPlan, compile_model
from repro.fixedpoint import (
    QFormat,
    QuantizedODENetExecutor,
    parse_format_pair,
)
from repro.models import MODELS, build_model
from repro.runtime import (
    InferenceSession,
    ModulePlan,
    SessionConfig,
    SessionStats,
)
from repro.tensor import Tensor, inference_mode, is_grad_enabled

REFERENCE = SessionConfig(backend="reference")


def _input_for(model, profile="tiny", batch=3, seed=0):
    size = {"tiny": 32}[profile]
    rng = np.random.default_rng(seed)
    return rng.standard_normal((batch, 3, size, size)).astype(np.float32)


class TestSessionParity:
    @pytest.mark.parametrize("name", MODELS)
    def test_matches_training_mode_forward(self, name):
        model = build_model(name, profile="tiny")
        x = _input_for(model)
        model.eval()
        ref = model(Tensor(x, _copy=False)).data

        session = InferenceSession(build_model(name, profile="tiny"))
        out = session.predict_batch(x)
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("name", ("odenet", "ode_botnet"))
    def test_reference_session_is_bit_exact(self, name):
        """A ``reference`` session on the paper models is the module
        forward, bit for bit."""
        model = build_model(name, profile="tiny", inference=True)
        x = _input_for(model, batch=4, seed=3)
        with kernels.use_backend("reference"):
            ref = model(Tensor(x, _copy=False)).data
        session = InferenceSession(model, config=REFERENCE)
        assert session.plan_kind == "module"
        assert np.array_equal(session.predict_batch(x), ref)

    def test_dopri5_falls_back_to_module_plan(self):
        model = build_model(
            "ode_botnet", profile="tiny", solver="dopri5", inference=True
        )
        x = _input_for(model, batch=2, seed=5)
        with kernels.use_backend("fused"):
            ref = model(Tensor(x, _copy=False)).data
        session = InferenceSession(
            model, config=SessionConfig(backend="fused")
        )
        assert session.plan_kind == "module"
        assert np.array_equal(session.predict_batch(x), ref)

    def test_quantized_backend_is_exact(self):
        model = build_model("ode_botnet", profile="tiny", inference=True)
        executor = QuantizedODENetExecutor(
            model, QFormat(32, 16), QFormat(24, 8)
        )
        x = _input_for(model, batch=2, seed=1)
        session = InferenceSession(executor, config=REFERENCE)
        assert session.plan_kind == "executor"
        assert np.array_equal(session.predict_batch(x), executor.run(x))

    def test_predict_single_sample_matches_batch_row(self):
        session = InferenceSession(
            build_model("ode_botnet", profile="tiny", inference=True)
        )
        x = _input_for(session.model, batch=1, seed=2)
        row = session.predict(x[0])
        assert np.array_equal(row, session.predict_batch(x)[0])

    def test_refresh_observes_new_parameters(self):
        model = build_model("odenet", profile="tiny", inference=True)
        session = InferenceSession(model)
        x = _input_for(model, batch=2)
        before = session.predict_batch(x)
        model.fc.bias.data[...] += 1.0
        session.refresh()
        after = session.predict_batch(x)
        np.testing.assert_allclose(after - before, 1.0, atol=1e-9)


#: case -> (plan kind under ``reference``, under any other backend)
PLAN_TABLE = {
    "odenet": ("module", "compiled"),
    "ode_botnet": ("module", "compiled"),
    "ode_botnet-dopri5": ("module", "module"),
    "resnet50": ("module", "module"),
    "executor-16(8)-12(4)": ("executor", "quantized"),
    "executor-48(24)-48(24)": ("executor", "executor"),
}
PLAN_TYPES = {
    "module": ModulePlan,
    "compiled": CompiledPlan,
    "quantized": CompiledPlan,
}


def _plan_table_model(case):
    if case.startswith("executor-"):
        model = build_model("ode_botnet", profile="tiny", inference=True)
        formats = parse_format_pair(case[len("executor-"):])
        return QuantizedODENetExecutor(model, *formats)
    name, _, solver = case.partition("-")
    kwargs = {"solver": solver} if solver else {}
    return build_model(name, profile="tiny", inference=True, **kwargs)


class TestPlanTable:
    """One oracle and one fast executor per numeric domain, bound once
    from the session's backend, each held to its parity contract."""

    @pytest.mark.parametrize("backend", ("reference", "fused", "compiled"))
    @pytest.mark.parametrize("case", sorted(PLAN_TABLE))
    def test_binds_plan_and_keeps_its_parity(self, case, backend):
        model = _plan_table_model(case)
        session = InferenceSession(
            model, config=SessionConfig(backend=backend)
        )
        kind = PLAN_TABLE[case][backend != "reference"]
        assert session.plan_kind == kind
        if kind in PLAN_TYPES:
            assert isinstance(session._plan, PLAN_TYPES[kind])
        else:
            assert session._plan == model.run
        x = _input_for(None, batch=2, seed=8)
        out = session.predict_batch(x)
        if kind in ("executor", "quantized"):
            # fixed point: bit-identical to the executor on reference
            with kernels.use_backend("reference"):
                assert np.array_equal(out, model.run(x))
        elif kind == "compiled":
            # within 1e-6 of the float oracle on reference kernels
            with kernels.use_backend("reference"):
                ref = model(Tensor(x, _copy=False)).data
            np.testing.assert_allclose(out, ref, rtol=0, atol=1e-6)
        else:
            # the float oracle, bit for bit, on the session's kernels
            with kernels.use_backend(backend):
                ref = model(Tensor(x, _copy=False)).data
            assert np.array_equal(out, ref)

    def test_ambient_backend_is_resolved_once(self):
        model = build_model("odenet", profile="tiny", inference=True)
        with kernels.use_backend("fused"):
            session = InferenceSession(model)
        assert session.plan_kind == "compiled"
        assert session.kernel_backend == "fused"
        with kernels.use_backend("reference"):
            session.predict_batch(_input_for(model, batch=1))
        assert session.plan_kind == "compiled"


class TestRefresh:
    @pytest.mark.parametrize("fmt", ("16(8)-12(4)", "48(24)-48(24)"))
    @pytest.mark.parametrize("backend", ("reference", "fused"))
    def test_executor_session_answers_with_new_weights(self, backend, fmt):
        """refresh() re-derives the executor's quantized weights, whether
        the session runs the executor or the compiled fixed-point plan."""
        model = build_model("ode_botnet", profile="tiny", inference=True)
        ffmt, pfmt = parse_format_pair(fmt)
        session = InferenceSession(
            QuantizedODENetExecutor(model, ffmt, pfmt),
            config=SessionConfig(backend=backend),
        )
        x = _input_for(model, batch=2, seed=6)
        before = session.predict_batch(x)
        model.fc.bias.data[...] += 1.0
        session.refresh()
        after = session.predict_batch(x)
        assert not np.array_equal(after, before)
        fresh = QuantizedODENetExecutor(model, ffmt, pfmt)
        with kernels.use_backend("reference"):
            assert np.array_equal(after, fresh.run(x))

    @pytest.mark.parametrize("backend", ("reference", "fused"))
    def test_float_session_answers_with_new_weights(self, backend):
        model = build_model("ode_botnet", profile="tiny", inference=True)
        session = InferenceSession(
            model, config=SessionConfig(backend=backend)
        )
        x = _input_for(model, batch=2, seed=7)
        before = session.predict_batch(x)
        # folded into the compiled plan's weights at lowering time
        model.down2.conv.weight.data[...] *= 2.0
        session.refresh()
        after = session.predict_batch(x)
        assert not np.array_equal(after, before)
        fresh = InferenceSession(
            build_model("ode_botnet", profile="tiny",
                        pretrained_state=model.state_dict(), inference=True),
            config=SessionConfig(backend=backend),
        )
        np.testing.assert_array_equal(after, fresh.predict_batch(x))


class TestSessionApi:
    def test_registry_inference_kwargs(self):
        trained = build_model("odenet", profile="tiny")
        trained.fc.bias.data[...] = 7.0
        rebuilt = build_model(
            "odenet", profile="tiny",
            pretrained_state=trained.state_dict(), inference=True,
        )
        assert not rebuilt.training
        assert np.array_equal(rebuilt.fc.bias.data, trained.fc.bias.data)

    def test_session_forces_eval_mode(self):
        model = build_model("ode_botnet", profile="tiny")
        assert model.training
        InferenceSession(model)
        assert not model.training

    def test_inference_mode_disables_grad_and_graph(self):
        assert is_grad_enabled()
        with inference_mode():
            assert not is_grad_enabled()
            a = Tensor(np.ones((2, 2)), requires_grad=True)
            out = (a * a).sum()
            assert out._ctx is None
        assert is_grad_enabled()

    def test_rejects_unsupported_model(self):
        with pytest.raises(TypeError):
            InferenceSession(42)

    def test_plans_require_eval_mode(self):
        model = build_model("odenet", profile="tiny")
        with pytest.raises(CompileError, match="eval"):
            compile_model(model)
        with pytest.raises(ValueError):
            ModulePlan(model)


class TestStats:
    def test_session_records_dispatches(self):
        session = InferenceSession(
            build_model("odenet", profile="tiny", inference=True)
        )
        x = _input_for(session.model, batch=4)
        session.predict_batch(x)
        session.predict(x[0])
        snap = session.stats.snapshot()
        assert snap["requests"] == 5
        assert snap["batches"] == 2
        assert snap["batch_histogram"] == {1: 1, 4: 1}
        assert snap["p50_ms"] > 0
        assert snap["p95_ms"] >= snap["p50_ms"]

    def test_snapshot_includes_p99(self):
        stats = SessionStats()
        for i in range(100):
            stats.record(1, 0.001 * (i + 1))
        snap = stats.snapshot()
        assert snap["p50_ms"] <= snap["p95_ms"] <= snap["p99_ms"]
        assert snap["p99_ms"] == pytest.approx(stats.latency_ms(99))

    def test_merge_aggregates_without_touching_donor(self):
        a, b = SessionStats(), SessionStats()
        a.record(4, 0.002)
        b.record(2, 0.004)
        b.record(2, 0.006)
        a.merge(b)
        snap = a.snapshot()
        assert snap["requests"] == 8
        assert snap["batches"] == 3
        assert snap["batch_histogram"] == {2: 2, 4: 1}
        assert a.latency_ms(100) == pytest.approx(6.0)
        # the donor is read-only during a merge
        assert b.snapshot()["requests"] == 4
        # merging in the opposite direction must not deadlock either
        b.merge(a)
        assert b.snapshot()["requests"] == 12

    def test_reset_and_window(self):
        stats = SessionStats(latency_window=2)
        for i in range(5):
            stats.record(2, 0.001 * (i + 1))
        assert stats.requests == 10
        assert len(stats._latencies_ms) == 2
        assert stats.latency_ms(50) == pytest.approx(4.5)
        stats.reset()
        assert stats.snapshot()["batches"] == 0
        assert np.isnan(stats.latency_ms(50))
