"""repro.fixedpoint.plan: the scale-folded QuantizedPlan.

The plan is the fixed-point fast executor: a one-time pack of an
ODENet's quantized weight set into a pipeline of closures over a
float-carried integer raw, chosen per site to be exact.  Its contract,
pinned here:

* **construction / supported()** — packs exactly the models the
  executor accepts *and* whose formats fit the float64 carry; every
  unsupported shape is named, not silently mis-packed;
* **bit-identity** — ``plan.run`` equals ``QuantizedODENetExecutor.run``
  bit-for-bit, including formats wide enough to force exact-int64
  sites;
* **version / refresh** — the weight-derivation counter starts at 1
  and ticks on every :meth:`refresh`, and a refresh really re-reads
  mutated model weights;
* **session integration** — any backend but ``reference`` binds an
  executor-backed session to a plan, and ``session.refresh()`` reaches
  it.
"""

import numpy as np
import pytest

from repro.fixedpoint import (
    QuantizedODENetExecutor,
    QuantizedPlan,
    parse_format_pair,
)
from repro.models import build_model
from repro.runtime import InferenceSession, SessionConfig


def _executor(name="ode_botnet", fmt="16(8)-12(4)", seed=0):
    model = build_model(name, profile="tiny", inference=True)
    ffmt, pfmt = parse_format_pair(fmt)
    return QuantizedODENetExecutor(model, ffmt, pfmt)


def _images(batch=2, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((batch, 3, 32, 32)).astype(np.float32)


class TestConstruction:
    def test_from_executor_shares_weight_derivation(self):
        ex = _executor()
        plan = QuantizedPlan.from_executor(ex)
        assert plan.model is ex.model
        assert plan.ffmt is ex.ffmt and plan.pfmt is ex.pfmt

    def test_direct_construction_matches_from_executor(self):
        ex = _executor()
        x = _images()
        direct = QuantizedPlan(ex.model, ex.ffmt, ex.pfmt)
        shared = QuantizedPlan.from_executor(ex)
        np.testing.assert_array_equal(direct.run(x), shared.run(x))

    def test_supported_accepts_executor_and_model(self):
        ex = _executor()
        assert QuantizedPlan.supported(ex)
        assert QuantizedPlan.supported(ex.model, ex.ffmt, ex.pfmt)

    def test_rejects_non_odenet(self):
        ffmt, pfmt = parse_format_pair("16(8)-12(4)")
        resnet = build_model("resnet50", profile="tiny", inference=True)
        assert not QuantizedPlan.supported(resnet, ffmt, pfmt)
        with pytest.raises(ValueError, match="cannot pack"):
            QuantizedPlan(resnet, ffmt, pfmt)

    def test_rejects_training_mode(self):
        model = build_model("odenet", profile="tiny")
        model.train()
        ffmt, pfmt = parse_format_pair("16(8)-12(4)")
        assert not QuantizedPlan.supported(model, ffmt, pfmt)
        with pytest.raises(ValueError, match="eval"):
            QuantizedPlan(model, ffmt, pfmt)

    def test_rejects_formats_past_the_float_carry(self):
        """Formats wider than the carry bound are the executor's job."""
        model = build_model("odenet", profile="tiny", inference=True)
        ffmt, pfmt = parse_format_pair("48(24)-48(24)")
        assert not QuantizedPlan.supported(model, ffmt, pfmt)
        with pytest.raises(ValueError, match="float64 carry"):
            QuantizedPlan(model, ffmt, pfmt)

    def test_rejects_non_euler_solver(self):
        from repro.ode import get_solver

        model = build_model("odenet", profile="tiny", inference=True)
        model.block1.solver = get_solver("rk4")
        ffmt, pfmt = parse_format_pair("16(8)-12(4)")
        assert not QuantizedPlan.supported(model, ffmt, pfmt)


class TestBitIdentity:
    @pytest.mark.parametrize("name", ("odenet", "ode_botnet"))
    def test_plan_matches_executor(self, name):
        ex = _executor(name)
        plan = QuantizedPlan.from_executor(ex)
        x = _images(batch=3)
        np.testing.assert_array_equal(plan.run(x), ex.run(x))

    @pytest.mark.parametrize(
        "fmt", ("16(8)-12(4)", "8(4)-8(4)", "4(2)-4(2)", "32(16)-24(8)")
    )
    def test_plan_matches_executor_per_format(self, fmt):
        """Including 32(16)-24(8), whose conv accumulators exceed the
        float64 mantissa and must run as exact int64 sites."""
        ex = _executor("ode_botnet", fmt)
        plan = QuantizedPlan.from_executor(ex)
        x = _images(batch=2, seed=5)
        np.testing.assert_array_equal(plan.run(x), ex.run(x))

    def test_callable_alias(self):
        ex = _executor("odenet")
        plan = QuantizedPlan.from_executor(ex)
        x = _images()
        np.testing.assert_array_equal(plan(x), plan.run(x))


class TestVersionAndRefresh:
    def test_version_starts_at_one_and_ticks(self):
        plan = QuantizedPlan.from_executor(_executor("odenet"))
        assert plan.version == 1
        plan.refresh()
        plan.refresh()
        assert plan.version == 3

    def test_refresh_requantizes_mutated_weights(self):
        ex = _executor("odenet")
        plan = QuantizedPlan.from_executor(ex)
        x = _images()
        before = plan.run(x)
        ex.model.fc.weight.data[:] = -ex.model.fc.weight.data
        plan.refresh()
        after = plan.run(x)
        assert not np.array_equal(before, after)
        # the refreshed plan agrees with a freshly packed executor
        fresh = QuantizedODENetExecutor(ex.model, ex.ffmt, ex.pfmt)
        np.testing.assert_array_equal(after, fresh.run(x))

    def test_repr_names_formats_and_version(self):
        plan = QuantizedPlan.from_executor(_executor("odenet"))
        text = repr(plan)
        assert "QuantizedPlan" in text and "version=1" in text


class TestSessionIntegration:
    def test_session_reroutes_executor_through_plan(self):
        ex = _executor("ode_botnet")
        session = InferenceSession(
            ex, config=SessionConfig(backend="fused")
        )
        assert isinstance(session._plan, QuantizedPlan)
        x = _images(batch=2, seed=9)
        np.testing.assert_array_equal(session.predict_batch(x), ex.run(x))

    def test_session_without_quantized_backend_keeps_executor_path(self):
        ex = _executor("odenet")
        session = InferenceSession(
            ex, config=SessionConfig(backend="reference")
        )
        assert not isinstance(session._plan, QuantizedPlan)
        x = _images()
        np.testing.assert_array_equal(session.predict_batch(x), ex.run(x))

    def test_session_accepts_plan_directly(self):
        ex = _executor("odenet")
        plan = QuantizedPlan.from_executor(ex)
        session = InferenceSession(plan)
        assert session.plan_kind == "quantized"
        x = _images()
        np.testing.assert_array_equal(session.predict_batch(x), ex.run(x))

    def test_session_refresh_reaches_the_plan(self):
        ex = _executor("odenet")
        session = InferenceSession(
            ex, config=SessionConfig(backend="fused")
        )
        assert session._plan.version == 1
        session.refresh()
        assert session._plan.version == 2
