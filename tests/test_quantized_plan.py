"""The compiled fixed-point plan: ``compile_model(model, formats)``.

The fixed-point fast executor is the compile binder's second lowering
(:func:`repro.compile.ir.lower_fixed`): the executor's rounding sites
over the float plan's channels-last arena ops.  Its contract, pinned
here:

* **construction** — compiles exactly the models the executor runs
  whose every site fits the float64 mantissa; every rejection is a
  named :class:`~repro.compile.CompileError`;
* **bit-identity** — the plan equals ``QuantizedODENetExecutor.run``
  under ``reference`` bit for bit, in the same dtype, per model, per
  format, at the serving geometry and on the dynamics variants the
  executor runs;
* **weight generations** — a compiled plan owns its quantized weights;
  recompiling (what ``session.refresh()`` does) re-reads the model;
* **session integration** — any backend but ``reference`` binds an
  executor-backed session to the plan, and falls back to the executor
  when a site outgrows the mantissa.
"""

import numpy as np
import pytest

from repro import kernels
from repro.compile import CompiledPlan, CompileError, compile_model
from repro.fixedpoint import QuantizedODENetExecutor, parse_format_pair
from repro.models import PROFILES, build_model
from repro.nn import BatchNorm2d
from repro.runtime import InferenceSession, SessionConfig

#: the bit-identity matrix's formats: the degrade ladder's rungs and
#: the paper's Table VIII pairs that fit the float64 mantissa
FORMATS = ("16(8)-12(4)", "8(4)-8(4)", "4(2)-4(2)", "18(9)-14(4)",
           "20(10)-16(4)")

#: the dynamics variants of tests/test_compile.py the executor runs
VARIANTS = (
    ("odenet", {"conv": "full"}),
    ("ode_botnet", {"conv": "full"}),
    ("ode_botnet", {"attention_activation": "softmax"}),
    ("ode_botnet", {"pos_enc": "none"}),
)


def _executor(name="ode_botnet", fmt="16(8)-12(4)", profile="tiny",
              **overrides):
    model = build_model(name, profile=profile, inference=True, **overrides)
    ffmt, pfmt = parse_format_pair(fmt)
    return QuantizedODENetExecutor(model, ffmt, pfmt)


def _compile(ex):
    return compile_model(ex.model, (ex.ffmt, ex.pfmt))


def _images(batch=2, seed=0, profile="tiny"):
    rng = np.random.default_rng(seed)
    size = PROFILES[profile]["input_size"]
    return rng.standard_normal((batch, 3, size, size)).astype(np.float32)


def _oracle(ex, x):
    with kernels.use_backend("reference"):
        return ex.run(x)


def _with_bn_statistics(model, seed=0):
    """Give every BatchNorm trained-looking statistics: an untrained
    BN's shift is zero, which hides the order of a BN site's
    saturation and its shift."""
    rng = np.random.default_rng(seed)
    for module in model.modules():
        if isinstance(module, BatchNorm2d):
            size = module.running_mean.shape
            module.running_mean[...] = rng.normal(0.0, 1.0, size)
            module.running_var[...] = rng.uniform(0.25, 4.0, size)
            module.weight.data[...] = rng.normal(1.0, 1.0, size)
            module.bias.data[...] = rng.normal(0.0, 2.0, size)
    return model


def _assert_bit_identical(out, ref):
    assert out.dtype == ref.dtype
    np.testing.assert_array_equal(out, ref)


class TestConstruction:
    def test_rejects_non_odenet(self):
        ffmt, pfmt = parse_format_pair("16(8)-12(4)")
        resnet = build_model("resnet50", profile="tiny", inference=True)
        with pytest.raises(CompileError, match="expected ODENet"):
            compile_model(resnet, (ffmt, pfmt))

    def test_rejects_training_mode(self):
        model = build_model("odenet", profile="tiny")
        model.train()
        ffmt, pfmt = parse_format_pair("16(8)-12(4)")
        with pytest.raises(CompileError, match="eval"):
            compile_model(model, (ffmt, pfmt))

    def test_supported_accepts_executor_and_model(self):
        """What the executor runs, the lowering takes: from the model
        and formats directly, or from the executor via a fast session."""
        ex = _executor()
        assert isinstance(_compile(ex), CompiledPlan)
        session = InferenceSession(ex, config=SessionConfig(backend="fused"))
        assert session.plan_kind == "quantized"

    def test_rejects_formats_past_the_float_carry(self):
        """A site whose accumulator outgrows the float64 mantissa is
        the executor's job: the compile names the site's width."""
        model = build_model("odenet", profile="tiny", inference=True)
        for fmt in ("32(16)-24(8)", "48(24)-48(24)"):
            with pytest.raises(CompileError, match="past the float64 mantissa"):
                compile_model(model, parse_format_pair(fmt))

    def test_rejects_non_euler_solver(self):
        from repro.ode import get_solver

        model = build_model("odenet", profile="tiny", inference=True)
        model.block1.solver = get_solver("rk4")
        ffmt, pfmt = parse_format_pair("16(8)-12(4)")
        with pytest.raises(CompileError, match="block1 solver 'rk4'"):
            compile_model(model, (ffmt, pfmt))

    def test_rejects_absolute_position_encoding(self):
        model = build_model("ode_botnet", profile="tiny", inference=True,
                            pos_enc="absolute")
        ffmt, pfmt = parse_format_pair("16(8)-12(4)")
        with pytest.raises(CompileError, match="block3 absolute"):
            compile_model(model, (ffmt, pfmt))


class TestBitIdentity:
    @pytest.mark.parametrize("name", ("odenet", "ode_botnet"))
    def test_plan_matches_executor(self, name):
        ex = _executor(name)
        x = _images(batch=3)
        _assert_bit_identical(_compile(ex)(x), _oracle(ex, x))

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_plan_matches_executor_per_format(self, fmt):
        ex = _executor("ode_botnet", fmt)
        x = _images(batch=2, seed=5)
        _assert_bit_identical(_compile(ex)(x), _oracle(ex, x))

    @pytest.mark.parametrize("fmt", ("8(4)-8(4)", "4(2)-4(2)", "16(8)-12(4)"))
    @pytest.mark.parametrize("name", ("odenet", "ode_botnet"))
    def test_saturating_sites_match_executor(self, name, fmt):
        """Sites that saturate, with non-zero BN shifts: each BN clips
        its scaled input before the shift is added, as the executor
        does."""
        ex = _executor(name, fmt)
        _with_bn_statistics(ex.model)
        ex.refresh()
        x = _images(batch=2, seed=11) * 8.0
        _assert_bit_identical(_compile(ex)(x), _oracle(ex, x))

    @pytest.mark.parametrize("fmt", ("8(4)-8(4)", "4(2)-4(2)"))
    @pytest.mark.parametrize("profile", ("paper", "paper-reduced"))
    @pytest.mark.parametrize("name", ("odenet", "ode_botnet"))
    def test_serving_geometry_matches_executor(self, name, profile, fmt):
        """The 96×96 geometry the ``int8`` / ``int4`` rungs serve."""
        ex = _executor(name, fmt, profile)
        x = _images(batch=2, seed=7, profile=profile)
        _assert_bit_identical(_compile(ex)(x), _oracle(ex, x))

    @pytest.mark.parametrize(
        "name,overrides", VARIANTS,
        ids=[f"{n}-{'-'.join(f'{k}={v}' for k, v in o.items())}"
             for n, o in VARIANTS],
    )
    def test_dynamics_variant_matches_executor(self, name, overrides):
        ex = _executor(name, **overrides)
        x = _images(batch=2, seed=3)
        _assert_bit_identical(_compile(ex)(x), _oracle(ex, x))


class TestVersionAndRefresh:
    """A weight generation is one lowering: the plan holds its own
    quantized copies, and re-deriving means compiling again."""

    def test_refresh_requantizes_mutated_weights(self):
        ex = _executor("odenet")
        plan = _compile(ex)
        x = _images()
        before = plan(x)
        ex.model.fc.weight.data[:] = -ex.model.fc.weight.data
        # the bound plan keeps answering with the generation it lowered
        np.testing.assert_array_equal(plan(x), before)
        after = _compile(ex)(x)
        assert not np.array_equal(before, after)
        fresh = QuantizedODENetExecutor(ex.model, ex.ffmt, ex.pfmt)
        _assert_bit_identical(after, _oracle(fresh, x))


class TestSessionIntegration:
    def test_session_reroutes_executor_through_plan(self):
        ex = _executor("ode_botnet")
        session = InferenceSession(
            ex, config=SessionConfig(backend="fused")
        )
        assert session.plan_kind == "quantized"
        assert isinstance(session._plan, CompiledPlan)
        x = _images(batch=2, seed=9)
        _assert_bit_identical(session.predict_batch(x), _oracle(ex, x))

    def test_session_without_quantized_backend_keeps_executor_path(self):
        ex = _executor("odenet")
        session = InferenceSession(
            ex, config=SessionConfig(backend="reference")
        )
        assert session.plan_kind == "executor"
        x = _images()
        np.testing.assert_array_equal(session.predict_batch(x), ex.run(x))

    def test_session_accepts_plan_directly(self):
        """A compiled plan is a plain callable to the session."""
        ex = _executor("odenet")
        session = InferenceSession(_compile(ex))
        assert session.plan_kind == "callable"
        x = _images()
        _assert_bit_identical(session.predict_batch(x), _oracle(ex, x))

    def test_session_refresh_reaches_the_plan(self):
        ex = _executor("odenet")
        session = InferenceSession(
            ex, config=SessionConfig(backend="fused")
        )
        x = _images()
        before = session.predict_batch(x)
        plan = session._plan
        ex.model.fc.bias.data[...] += 1.0
        session.refresh()
        assert session.plan_kind == "quantized"
        assert session._plan is not plan
        after = session.predict_batch(x)
        assert not np.array_equal(before, after)
        fresh = QuantizedODENetExecutor(ex.model, ex.ffmt, ex.pfmt)
        _assert_bit_identical(after, _oracle(fresh, x))

    def test_session_falls_back_to_executor_past_the_mantissa(self):
        """32(16)-24(8): every site is wider than float64 holds, so a
        fast session runs the executor — bit-identical by definition."""
        ex = _executor("ode_botnet", "32(16)-24(8)")
        session = InferenceSession(
            ex, config=SessionConfig(backend="fused")
        )
        assert session.plan_kind == "executor"
        x = _images(batch=2, seed=5)
        _assert_bit_identical(session.predict_batch(x), _oracle(ex, x))
